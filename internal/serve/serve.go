// Package serve is a multi-tenant GPU file-service frontend over
// gpufs.System: the layer that turns many concurrent client requests into
// few, well-batched kernel launches — the shape of an inference-serving
// stack, applied to the paper's self-contained GPU file applications (§5).
//
// The pipeline is queues → batcher → placement → launch:
//
//   - Admission. Submit(tenant, job) admits a job only while the tenant
//     has fewer than QueueDepth jobs in the system; beyond that it rejects
//     with an OverloadError carrying a virtual-time retry-after hint.
//     Memory is bounded by tenants × QueueDepth, never by offered load.
//   - Placement. Each admitted job is routed to a GPU: by cache affinity
//     (the GPU whose buffer cache already holds pages of the job's file;
//     cold files hash to a stable home so a partition emerges), falling
//     back to the least-loaded GPU only past a bounded share (place.go) —
//     or by round-robin, the baseline policy the bench table compares.
//   - Continuous batching. One worker per GPU drains its queue: each round
//     coalesces up to MaxBatch queued jobs (round-robin across tenants for
//     fairness) into ONE kernel launch whose threadblocks stride over the
//     jobs — not one launch per request. Launches are asynchronous: the
//     worker issues the next one a launch overhead after the last, while
//     that kernel's tail still runs, and the device gives the new kernel's
//     blocks the execution slots the tail leaves free. An idle worker with
//     an empty queue steals from the longest queue past its share.
//   - Completion. Every job completes or fails exactly once through its
//     Future. Failed attempts retry within the job's MaxAttempts budget
//     and virtual-time deadline (fault-injected EIO/EAGAIN survivors fail
//     with explicit errors; nothing hangs). A device fault restarts the
//     GPU (losing its caches, §3.3) and re-runs the interrupted batch.
//
// All timing is virtual (internal/simtime): each GPU worker carries the
// clock of its launch thread, which a launch advances by the launch
// overhead, and job latency is measured from admission stamp to the
// completion of the kernel that ran the job.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gpufs"
	"gpufs/internal/ckpt"
	"gpufs/internal/metrics"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
	"gpufs/internal/workloads"
)

// JobKind selects the file-processing kernel a job runs.
type JobKind uint8

// Job kinds, all read-only over one host file. JobGrep counts with
// workloads.CountWord and JobSearch with searchCount; tests check both
// against references that share no code with them.
const (
	// JobGrep counts whole-word occurrences of Word ([a-z] tokens), the
	// matching rule of the paper's grep application (§5.2.2).
	JobGrep JobKind = iota
	// JobSearch counts raw substring occurrences of Word.
	JobSearch
	// JobTransform returns the uppercased prefix of the file (bounded by
	// MaxOutput / Config.MaxOutputBytes).
	JobTransform
)

// String names the job kind.
func (k JobKind) String() string {
	switch k {
	case JobGrep:
		return "grep"
	case JobSearch:
		return "search"
	case JobTransform:
		return "transform"
	}
	return fmt.Sprintf("JobKind(%d)", int(k))
}

// Job is one client request: a file-processing operation over a host file.
type Job struct {
	// Kind selects the kernel.
	Kind JobKind
	// Path is the host file the job processes.
	Path string
	// Word is the needle for JobGrep and JobSearch.
	Word string
	// MaxOutput caps JobTransform's returned bytes; 0 uses the server's
	// MaxOutputBytes.
	MaxOutput int64
	// Deadline is the job's virtual-time budget measured from admission;
	// 0 means no deadline. A job whose deadline passes before or during
	// execution fails with ErrDeadlineExceeded (wrapping the last attempt's
	// error, if any).
	Deadline simtime.Duration
}

// Result is a completed (or failed) job's outcome.
type Result struct {
	// Tenant and Job echo the submission; ID is the server-wide job id.
	Tenant string
	Job    Job
	ID     uint64
	// Count is the match count for JobGrep/JobSearch.
	Count int64
	// Output is JobTransform's (bounded) output.
	Output []byte
	// Err is the job's explicit failure, nil on success.
	Err error
	// GPU is the device the final attempt ran on; Batch is that launch's
	// sequence number; Attempts counts kernel executions of this job.
	GPU      int
	Batch    int64
	Attempts int
	// Enqueued, Started, Done are the job's virtual-time admission,
	// final-attempt launch, and completion stamps.
	Enqueued, Started, Done simtime.Time
	// AffinityHit reports whether the executing GPU's buffer cache held
	// pages of the job's file when the batch was assembled.
	AffinityHit bool
}

// Latency is the job's virtual admission-to-completion time.
func (r Result) Latency() simtime.Duration { return r.Done.Sub(r.Enqueued) }

// Future is the pending result of a submitted job. It resolves once, and
// Wait and Done may then be used any number of times, by any goroutine.
type Future struct {
	out *outcome
	// then is the handler Then attached, or resolvedMark once the result
	// is in out. Whichever of Then and resolve swaps second runs the
	// handler, so it runs exactly once and no goroutine parks for it.
	then atomic.Pointer[func(Result)]
}

// outcome holds a Future's result, written once before done closes.
type outcome struct {
	done chan struct{}
	r    Result
}

func newOutcome() *outcome { return &outcome{done: make(chan struct{})} }

// resolvedMark is then's value after resolve.
var resolvedMark = new(func(Result))

// Done returns a channel that closes when the result is in.
func (f *Future) Done() <-chan struct{} { return f.out.done }

// Wait blocks until the result is in and returns it.
func (f *Future) Wait() Result {
	<-f.out.done
	return f.out.r
}

// Then hands the result to fn. fn runs once: on the goroutine that
// resolves the Future, or at once on the caller's if the result has
// already arrived. The resolving goroutine holds no lock of the Backend's,
// so fn may take the caller's own locks; it must not block. Call Then at
// most once.
func (f *Future) Then(fn func(Result)) {
	if f.then.Swap(&fn) == resolvedMark {
		fn(f.out.r)
	}
}

// resolve completes f: it stores r, closes Done, and runs the handler Then
// attached.
func (f *Future) resolve(r Result) {
	f.out.r = r
	close(f.out.done)
	if fn := f.then.Swap(resolvedMark); fn != nil {
		(*fn)(r)
	}
}

// NewFuture returns an unresolved Future plus the function that completes
// it. Alternative Backend implementations (fakes, remote proxies) use it to
// mint futures with the same exactly-once delivery contract the Server
// provides; the resolve function must be called exactly once, with none of
// the Backend's locks held.
func NewFuture() (*Future, func(Result)) {
	f := &Future{out: newOutcome()}
	return f, f.resolve
}

// Backend is the seam between one serving host and a cluster control plane
// (internal/fleet): everything the fleet needs to route, observe, and
// remediate a host, with the host's implementation hidden behind it. The
// *Server over a simulated gpufs.System is the implementation of record
// ("real" hardware would slot in the same way); internal/fleet's tests drive
// the control plane with a fake whose completions they script.
type Backend interface {
	// Submit admits one job for tenant (see Server.Submit).
	Submit(tenant string, job Job) (*Future, error)
	// Drain stops admission and waits for every admitted job to complete.
	Drain()
	// DrainForHandoff stops admission, completes every job that has not
	// yet launched with ErrHandedOff (so the caller can requeue it
	// elsewhere), waits for in-flight work, and shuts the host down. It
	// returns the number of jobs handed off.
	DrainForHandoff() int
	// Checkpoint captures the host into a migratable image: it freezes the
	// queues (handing queued jobs back exactly as DrainForHandoff does),
	// walks every GPU's buffer-cache and file-table state while in-flight
	// batches finish, and shuts the host down. On error the host is still
	// fully drained — the caller falls back to replacing it cold. Counts
	// as the host's one drain call.
	Checkpoint() (*ckpt.Image, error)
	// Restore materializes a checkpoint image onto this host. It must be
	// called on a freshly built host before it takes traffic.
	Restore(img *ckpt.Image) error
	// Load reports the host's instantaneous backlog: queued plus
	// in-flight jobs.
	Load() int
	// ResidentPages reports the most buffer-cache pages of path any of
	// the host's GPUs holds — the fleet's cache-affinity signal.
	ResidentPages(path string) int64
	// Now is the host's virtual time (latest observed batch completion).
	Now() simtime.Time
	// NumGPUs reports the host's device count (capacity accounting).
	NumGPUs() int
	// Stats snapshots the host's serving counters.
	Stats() Stats
}

// Policy selects the placement layer's routing.
type Policy uint8

// Placement policies.
const (
	// PlaceAffinity routes jobs to the GPU whose buffer cache holds their
	// file (stable-hash home for cold files), with least-loaded spill
	// and idle-worker stealing only past a GPU's bounded share.
	PlaceAffinity Policy = iota
	// PlaceRoundRobin distributes jobs across GPUs in submission order,
	// ignoring cache residency (the baseline the bench table compares).
	PlaceRoundRobin
)

// String names the policy.
func (p Policy) String() string {
	if p == PlaceRoundRobin {
		return "round-robin"
	}
	return "affinity"
}

// A batched launch's geometry: the block width, and the cap on its grid
// (jobs beyond it stride).
const (
	threadsPerBlock = 256
	maxBlocks       = 64
)

// Config tunes the server. The zero value gets sensible defaults from New.
type Config struct {
	// QueueDepth bounds each tenant's jobs in the system (queued plus
	// in-flight); Submit rejects beyond it. Default 32.
	QueueDepth int
	// MaxBatch is the most jobs one scheduling round coalesces into a
	// single kernel launch. What it buys is launches: a GPU's launch thread
	// issues one kernel per launch overhead, so 1 — one launch per request,
	// the bench baseline — caps a GPU near 1/KernelLaunchOverhead jobs per
	// second however short the jobs are. Default 16.
	MaxBatch int
	// Policy is the placement policy. Default PlaceAffinity.
	Policy Policy
	// MaxAttempts is the per-job execution budget under failures.
	// Default 3.
	MaxAttempts int
	// MaxOutputBytes bounds JobTransform outputs. Default 64 KiB.
	MaxOutputBytes int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = 32
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 16
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.MaxOutputBytes <= 0 {
		out.MaxOutputBytes = 64 << 10
	}
	return out
}

// Sentinel errors.
var (
	// ErrDraining rejects submissions after Drain began.
	ErrDraining = errors.New("serve: server is draining")
	// ErrHandedOff completes a job that DrainForHandoff flushed before it
	// ever launched: the job was NOT executed here and is safe to resubmit
	// verbatim on another server. A control plane treats this result as a
	// re-routing signal, never as a client-visible failure.
	ErrHandedOff = errors.New("serve: job handed off during drain")
	// ErrOverloaded is wrapped by OverloadError on admission rejection.
	ErrOverloaded = errors.New("serve: tenant queue full")
	// ErrDeadlineExceeded fails a job whose virtual deadline passed.
	ErrDeadlineExceeded = errors.New("serve: virtual deadline exceeded")
	// ErrBadJob rejects a malformed job at submission.
	ErrBadJob = errors.New("serve: invalid job")
)

// OverloadError is the admission-control rejection: the tenant's queue is
// full. RetryAfter is the server's virtual-time estimate of when capacity
// frees; a well-behaved client backs off that long before resubmitting.
type OverloadError struct {
	Tenant     string
	RetryAfter simtime.Duration
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %q queue full, retry after %v", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// job is the server-internal state of one submitted request.
type job struct {
	id       uint64
	tenant   string
	spec     Job
	fut      Future
	arrival  simtime.Time
	deadline simtime.Time // zero = none
	// ready is the earliest the job's next attempt may be issued: its
	// arrival, then the end of the launch whose failure requeued it — the
	// server learns how a kernel went when the kernel ends.
	ready   simtime.Time
	lastErr error

	// Per-attempt execution scratch, written by exactly one threadblock
	// during a launch and read by the worker after Launch returns.
	err    error
	count  int64
	output []byte
	hit    bool
	// completed is set, under the server lock, when the job's result is
	// delivered (completeJob).
	completed bool

	// attempts counts the job's kernel executions. An int32 shares hit's
	// word, so the job, its Future included, fits a 192-byte size class.
	attempts int32
}

// tenant is one client's admission-control state.
type tenant struct {
	open  int // jobs admitted and not yet completed
	stats TenantStats

	// mAdmitted and mRejected are the tenant's pre-resolved metrics
	// handles; nil when metrics are off.
	mAdmitted, mRejected *metrics.Counter
}

// Server is the multi-tenant serving frontend over one gpufs.System.
type Server struct {
	sys *gpufs.System
	cfg Config
	tr  *trace.Tracer
	met *serveMetrics // nil when the system carries no registry

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	queues  []*gpuQueue // per-GPU pending jobs
	// running is GPU g's running batch, empty between batches. Its jobs
	// already completed stay in it until the worker releases the batch,
	// which keeps Drain from seeing a retry neither queued nor in flight;
	// Stats skips them, so no job is completed and in flight at once.
	running  [][]*job
	gstats   []GPUStats
	lat      []simtime.Duration
	svcEst   simtime.Duration // EWMA of per-job service time
	rr       int
	batchSeq int64
	draining bool
	// cursors is each GPU's launch thread's clock: when it can issue its
	// next kernel, one launchGap (the machine's KernelLaunchOverhead) after
	// it issued the last. When that kernel ends is not its concern (see
	// runBatch).
	cursors   []simtime.Time
	launchGap simtime.Duration
	// widest is each GPU's widest launch so far, in blocks: ShardLanes is
	// recounted only when a launch is wider.
	widest []int
	// scanRate is the per-GPU rate charged for a job's scan over its file:
	// the machine's calibrated grep rate.
	scanRate simtime.Rate
	// handoff freezes dispatch: takeLocked assembles no new batches while
	// it is set, so every queued job — including a retry requeued by an
	// in-flight batch — is flushed with ErrHandedOff instead of being
	// raced into one last launch. DrainForHandoff and Checkpoint set it;
	// plain Drain does not (its queued jobs must still execute here).
	handoff bool
	closed  bool

	vnow atomic.Int64 // server virtual now: max observed batch end
	ids  atomic.Uint64
	wg   sync.WaitGroup
}

// New starts a server over sys with one batching worker per GPU. Enable
// tracing on sys before calling New if serve events should be traced.
func New(sys *gpufs.System, cfg Config) *Server {
	s := &Server{
		sys:     sys,
		cfg:     cfg.withDefaults(),
		tr:      sys.Tracer(),
		tenants: make(map[string]*tenant),
		svcEst:  500 * simtime.Microsecond,

		launchGap: sys.Config().KernelLaunchOverhead,
		scanRate:  simtime.Rate(sys.Config().GrepGPURate),
	}
	s.cond = sync.NewCond(&s.mu)
	n := sys.NumGPUs()
	s.queues = make([]*gpuQueue, n)
	s.running = make([][]*job, n)
	for i := range s.queues {
		s.queues[i] = newGPUQueue()
		s.running[i] = make([]*job, 0, s.cfg.MaxBatch)
	}
	s.cursors = make([]simtime.Time, n)
	s.widest = make([]int, n)
	s.gstats = make([]GPUStats, n)
	if reg := sys.Metrics(); reg != nil {
		s.met = newServeMetrics(reg, n)
	}
	for g := 0; g < n; g++ {
		s.wg.Add(1)
		go s.worker(g)
	}
	return s
}

// Config returns the server's defaulted configuration.
func (s *Server) Config() Config { return s.cfg }

// Now reports the server's virtual time: the latest batch completion
// observed on any GPU.
func (s *Server) Now() simtime.Time { return simtime.Time(s.vnow.Load()) }

// advanceNow moves the server's virtual time forward to t, if it is behind.
func (s *Server) advanceNow(t simtime.Time) {
	for {
		cur := s.vnow.Load()
		if int64(t) <= cur || s.vnow.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Submit admits one job for tenant, arriving at the server's virtual time. It
// never blocks: the job is either admitted (returning its Future) or rejected
// — with an OverloadError carrying a retry-after hint when the tenant's queue
// is full, or ErrDraining after Drain began.
func (s *Server) Submit(tenantName string, spec Job) (*Future, error) {
	return s.admit(tenantName, spec, nil)
}

// SubmitAt is Submit with an explicit virtual arrival instant, for
// open-loop drivers whose arrival schedule is generated independently of
// the server's progress (Poisson arrivals, the saturation bench).
// The job's latency — and its deadline, if any — is measured from at, so
// when the machine has fallen behind the arrival process (vnow past at),
// the time spent waiting to be submitted counts as queueing delay, which
// is exactly the signal a saturation sweep is after. Drivers generate
// arrivals in nondecreasing order and pace them with WaitUntil. A job
// submitted ahead of Now() is safe: a launch takes only jobs that have
// arrived by its issue instant, so the job waits queued for a launch at or
// after its arrival and holds back no job that arrived before it.
func (s *Server) SubmitAt(tenantName string, spec Job, at simtime.Time) (*Future, error) {
	return s.admit(tenantName, spec, &at)
}

// admit is Submit and SubmitAt: it checks spec, enqueues it under the lock
// arriving at *at, or when at is nil at the virtual time read under the lock,
// and records the enqueue.
func (s *Server) admit(tenantName string, spec Job, at *simtime.Time) (*Future, error) {
	if err := validateJob(spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	arrival := simtime.Time(s.vnow.Load())
	if at != nil {
		arrival = *at
	}
	fut, g, err := s.enqueueLocked(tenantName, spec, arrival)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if s.tr.Enabled() {
		s.tr.Record(trace.Event{
			GPU: g, Block: trace.LaunchQueue, Op: trace.OpEnqueue, Path: spec.Path,
			Start: arrival, End: arrival,
		})
	}
	return fut, nil
}

// WaitUntil blocks until the server's virtual time reaches at. While work
// is queued or in flight it waits for completions to advance the clock;
// once the machine goes idle short of at, virtual time leaps forward —
// an idle gap between open-loop arrivals costs no simulated work, like a
// sleeping load generator. A job submitted before Now() reaches its
// arrival launches no earlier than that arrival, and no job launched beside
// it waits for it.
func (s *Server) WaitUntil(at simtime.Time) {
	s.mu.Lock()
	for simtime.Time(s.vnow.Load()) < at {
		if s.idleLocked() {
			s.advanceNow(at)
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// validateJob is admission's spec check.
func validateJob(spec Job) error {
	if spec.Path == "" {
		return fmt.Errorf("%w: empty path", ErrBadJob)
	}
	if (spec.Kind == JobGrep || spec.Kind == JobSearch) && spec.Word == "" {
		return fmt.Errorf("%w: %s needs a word", ErrBadJob, spec.Kind)
	}
	if spec.Kind > JobTransform {
		return fmt.Errorf("%w: unknown kind %d", ErrBadJob, int(spec.Kind))
	}
	return nil
}

// enqueueLocked is admission and placement of a job arriving at arrival; the
// caller holds s.mu. It broadcasts to wake workers on success.
func (s *Server) enqueueLocked(tenantName string, spec Job, arrival simtime.Time) (*Future, int, error) {
	if s.draining || s.closed {
		return nil, -1, ErrDraining
	}
	tn := s.tenants[tenantName]
	if tn == nil {
		tn = &tenant{}
		tn.mAdmitted, tn.mRejected = s.met.tenantCounters(tenantName)
		s.tenants[tenantName] = tn
	}
	if tn.open >= s.cfg.QueueDepth {
		tn.stats.Rejected++
		tn.mRejected.Inc()
		return nil, -1, &OverloadError{Tenant: tenantName, RetryAfter: s.retryAfterLocked()}
	}
	tn.open++
	tn.stats.Submitted++
	tn.mAdmitted.Inc()
	if tn.open > tn.stats.MaxQueued {
		tn.stats.MaxQueued = tn.open
	}

	j := &job{
		id:      s.ids.Add(1),
		tenant:  tenantName,
		spec:    spec,
		fut:     Future{out: newOutcome()},
		arrival: arrival,
		ready:   arrival,
	}
	if d := spec.Deadline; d > 0 {
		j.deadline = j.arrival.Add(d)
	}

	g := s.routeLocked(j)
	s.queues[g].push(j)
	s.gstats[g].Routed++
	s.met.noteQueueDepth(g, s.queues[g].size)
	s.cond.Broadcast()
	return &j.fut, g, nil
}

// retryAfterLocked estimates the virtual time until admission capacity
// frees: the per-job service estimate scaled by how deep the backlog is
// relative to one scheduling round across the machine.
func (s *Server) retryAfterLocked() simtime.Duration {
	round := s.cfg.MaxBatch * len(s.queues)
	est := s.svcEst * simtime.Duration(1+s.hostLoadLocked()/round)
	if est < 100*simtime.Microsecond {
		est = 100 * simtime.Microsecond
	}
	return est
}

// Drain stops admission, waits for every queued and in-flight job to
// complete (including fault-driven retries), and shuts the workers down.
// It is the graceful-shutdown path and is safe to call exactly once.
//
// The admission race is first-come-first-served on the server lock, and
// there is no in-between outcome: a Submit that wins the lock before Drain
// is admitted, its Future is serviced to completion before Drain returns; a
// Submit that loses fails with ErrDraining and returns no Future. A Future
// Submit returned is NEVER abandoned (TestSubmitDrainRace pins this).
// Exactly one of Drain / DrainForHandoff may be called, once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	for !s.idleLocked() {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// DrainForHandoff is the remediation-path drain: it stops admission,
// flushes every job that has not yet been taken into a kernel launch —
// completing each with ErrHandedOff so the caller can resubmit it on
// another host — waits for in-flight batches (whose jobs complete or fail
// normally, retries included; a retry requeued mid-drain is flushed, not
// re-executed here), and shuts the workers down. It returns the number of
// jobs handed off. Like Drain it may be called once, and every admitted
// Future still completes exactly once. (Checkpoint runs this same freeze
// internally; calling DrainForHandoff after a Checkpoint attempt is a
// harmless no-op returning 0 — the fallback path relies on that.)
func (s *Server) DrainForHandoff() int {
	flushed := s.freezeAndFlush()
	now := simtime.Time(s.vnow.Load())
	for _, f := range flushed {
		s.completeJob(f.j, f.g, -1, now, now, ErrHandedOff)
	}
	return len(flushed)
}

// flushedJob is one queued job popped by a handoff freeze, tagged with
// the GPU queue it came from.
type flushedJob struct {
	j *job
	g int
}

// freezeAndFlush is the shared handoff freeze: stop admission AND
// dispatch (the handoff flag gates takeLocked, so a retry requeued by an
// in-flight batch mid-drain can never be raced into one last launch —
// it is flushed like everything else), pop every queued job, wait for
// in-flight batches, and shut the workers down. The caller completes the
// flushed jobs with ErrHandedOff.
func (s *Server) freezeAndFlush() []flushedJob {
	var flushed []flushedJob
	s.mu.Lock()
	s.draining = true
	s.handoff = true
	s.cond.Broadcast()
	for {
		for g, q := range s.queues {
			if q.size == 0 {
				continue
			}
			for _, j := range q.pop(nil, q.size, math.MaxInt64) {
				flushed = append(flushed, flushedJob{j, g})
			}
			s.met.noteQueueDepth(g, 0)
		}
		if s.idleLocked() {
			break
		}
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return flushed
}

// Load reports the instantaneous backlog: queued plus in-flight jobs.
func (s *Server) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hostLoadLocked()
}

// ResidentPages reports the most buffer-cache pages of path any GPU on
// this host holds — the cross-host cache-affinity signal the fleet
// scheduler routes on.
func (s *Server) ResidentPages(path string) int64 {
	var best int64
	for g := 0; g < s.sys.NumGPUs(); g++ {
		if p := s.sys.GPU(g).ResidentPages(path); p > best {
			best = p
		}
	}
	return best
}

// NumGPUs reports the underlying machine's device count.
func (s *Server) NumGPUs() int { return s.sys.NumGPUs() }

// Server implements Backend.
var _ Backend = (*Server)(nil)

// idleLocked reports whether no work is queued or in flight anywhere.
func (s *Server) idleLocked() bool {
	for g := range s.queues {
		if s.loadLocked(g) > 0 {
			return false
		}
	}
	return true
}

// jobBufs recycles the buffers execJob reads files into. A pool, not a buffer
// per execution slot: a job's file is as large as the tenant made it, not a
// property of the device, and internal/gpu knows nothing of jobs. Nothing
// reads a buffer after its job returns (a transform's output is a copy).
var jobBufs = sync.Pool{New: func() any { return new([]byte) }}

// execJob runs one job's kernel inside a threadblock: read the file
// through the GPUfs API (hitting this GPU's buffer cache when resident),
// charge the scan, and compute the real answer. Errors are captured into
// the job — never returned — so one faulted job cannot abort the whole
// batch or latch the device.
func (s *Server) execJob(c *gpufs.BlockCtx, j *job) {
	j.err, j.count, j.output = nil, 0, nil

	fd, err := c.Gopen(j.spec.Path, gpufs.O_RDONLY)
	if err != nil {
		j.err = err
		return
	}
	info, err := c.Gfstat(fd)
	if err != nil {
		c.Gclose(fd)
		j.err = err
		return
	}
	bp := jobBufs.Get().(*[]byte)
	defer jobBufs.Put(bp)
	if int64(cap(*bp)) < info.Size {
		*bp = make([]byte, info.Size)
	}
	// The buffer still holds whatever job used it last, any tenant's: the
	// job sees the bytes this read returned and nothing past them.
	n, err := c.Gread(fd, (*bp)[:info.Size], 0)
	if err != nil {
		c.Gclose(fd)
		j.err = err
		return
	}
	buf := (*bp)[:n]
	if err := c.Gclose(fd); err != nil {
		j.err = err
		return
	}
	c.ComputeBytes(int64(n), s.scanRate)

	switch j.spec.Kind {
	case JobGrep:
		j.count = int64(workloads.CountWord(buf, j.spec.Word))
	case JobSearch:
		j.count = searchCount(buf, j.spec.Word)
	case JobTransform:
		limit := j.spec.MaxOutput
		if limit <= 0 || limit > s.cfg.MaxOutputBytes {
			limit = s.cfg.MaxOutputBytes
		}
		if limit > int64(n) {
			limit = int64(n)
		}
		j.output = bytes.ToUpper(buf[:limit])
	}
}

// searchCount is bytes.Count(buf, []byte(word)) for a non-empty word: the
// leftmost matches, none overlapping. bytes.Count re-enters bytes.Index per
// match; this loop finds a candidate with IndexByte, compares the rest in
// place and steps over a match. A tenant chooses the word, and none may make
// a job slower than bytes.Count: once the false candidates pass bytes.Index's
// own cutover on amd64, (i+16)/8, the rest goes to bytes.Count. Both scans
// continue leftmost and non-overlapping from i, so the hand-off is exact.
// That cutover is bytes.Index's only for words of at most bytealg.MaxLen
// bytes (31 on amd64 without AVX2); a longer word's compare can read most of
// it per candidate, so it goes to bytes.Count whole, and so does a one-byte
// word, which bytes.Count counts with SIMD.
func searchCount(buf []byte, word string) int64 {
	n, fails, i := 0, 0, 0
	if len(word) > 1 && len(word) <= 31 {
		end := len(buf) - len(word) + 1 // one past the last start of a match
		for i < end {
			k := bytes.IndexByte(buf[i:end], word[0])
			if k < 0 {
				return int64(n)
			}
			if i += k; string(buf[i:i+len(word)]) == word {
				n++
				i += len(word)
				continue
			}
			i++
			if fails++; fails > (i+16)/8 {
				break
			}
		}
	}
	return int64(n + bytes.Count(buf[i:], []byte(word)))
}
