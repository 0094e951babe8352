package fleet

import (
	"errors"
	"sync"

	"gpufs/internal/ckpt"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// FakeBackend is a scripted serve.Backend for control-plane tests: jobs
// queue until the test resolves them, so a test can hold the fleet in any
// intermediate state (jobs in flight while a host is condemned, a drain
// racing a submit) that the real timing-driven Server would rush through.
// It honors the Backend contract exactly — exactly-once futures via
// serve.NewFuture, ErrDraining after either drain, handoff semantics — so
// control-plane logic exercised against it transfers to real hosts.
type FakeBackend struct {
	mu       sync.Mutex
	queued   []fakeJob
	auto     bool
	failWith error
	depth    int // queued jobs at which Submit rejects as overloaded; 0 = no limit
	gpus     int // NumGPUs; 0 reads as 1
	draining bool
	now      simtime.Time
	resident map[string]int64
	nextID   uint64
	admitted int64
	resolved int64 // completions that were real (not handoffs)
	handed   int64 // jobs returned via DrainForHandoff or Checkpoint

	ckptErr  error       // scripted Checkpoint failure
	ckptHook func()      // runs mid-Checkpoint, between freeze and image
	restored *ckpt.Image // image the last Restore received
}

// Counts reports (admitted, resolved, handed off) — resolved counts real
// completions only, so a test can assert a drained host never executed
// the jobs it handed back.
func (b *FakeBackend) Counts() (admitted, resolved, handed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.admitted, b.resolved, b.handed
}

type fakeJob struct {
	id      uint64
	tenant  string
	spec    serve.Job
	resolve func(serve.Result)
	arrival simtime.Time
}

// NewFakeBackend returns an empty fake with manual completion (jobs queue
// until Complete or Fail).
func NewFakeBackend() *FakeBackend {
	return &FakeBackend{resident: make(map[string]int64)}
}

// SetAuto switches the fake to resolve each submission immediately at
// submit time (with SetFailWith's error, if set).
func (b *FakeBackend) SetAuto(on bool) {
	b.mu.Lock()
	b.auto = on
	b.mu.Unlock()
}

// SetFailWith makes subsequently resolved jobs fail with err (nil
// restores success).
func (b *FakeBackend) SetFailWith(err error) {
	b.mu.Lock()
	b.failWith = err
	b.mu.Unlock()
}

// SetResident scripts ResidentPages(path).
func (b *FakeBackend) SetResident(path string, pages int64) {
	b.mu.Lock()
	b.resident[path] = pages
	b.mu.Unlock()
}

// AdvanceTo moves the fake's virtual clock forward.
func (b *FakeBackend) AdvanceTo(t simtime.Time) {
	b.mu.Lock()
	if t > b.now {
		b.now = t
	}
	b.mu.Unlock()
}

// SetQueueDepth scripts admission: while n jobs are queued, Submit rejects
// with serve's OverloadError, whatever the tenant. 0 removes the limit.
func (b *FakeBackend) SetQueueDepth(n int) {
	b.mu.Lock()
	b.depth = n
	b.mu.Unlock()
}

// Submit implements serve.Backend. Admission is unlimited unless
// SetQueueDepth set a depth.
func (b *FakeBackend) Submit(tenant string, spec serve.Job) (*serve.Future, error) {
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return nil, serve.ErrDraining
	}
	if b.depth > 0 && len(b.queued) >= b.depth {
		b.mu.Unlock()
		return nil, &serve.OverloadError{Tenant: tenant, RetryAfter: simtime.Millisecond}
	}
	b.nextID++
	b.admitted++
	fut, resolve := serve.NewFuture()
	j := fakeJob{id: b.nextID, tenant: tenant, spec: spec, resolve: resolve, arrival: b.now}
	if b.auto {
		res := b.resultLocked(j, b.failWith)
		b.resolved++
		b.mu.Unlock()
		resolve(res)
		return fut, nil
	}
	b.queued = append(b.queued, j)
	b.mu.Unlock()
	return fut, nil
}

// resultLocked builds a completion for j (b.mu held).
func (b *FakeBackend) resultLocked(j fakeJob, err error) serve.Result {
	return serve.Result{
		Tenant: j.tenant, Job: j.spec, ID: j.id, Err: err,
		Enqueued: j.arrival, Started: j.arrival, Done: b.now,
		Attempts: 1,
	}
}

// Complete resolves up to n queued jobs (FIFO) successfully, returning how
// many it resolved. n < 0 resolves everything.
func (b *FakeBackend) Complete(n int) int { return b.finish(n, nil) }

// Fail resolves up to n queued jobs (FIFO) with err.
func (b *FakeBackend) Fail(n int, err error) int { return b.finish(n, err) }

func (b *FakeBackend) finish(n int, err error) int {
	b.mu.Lock()
	if n < 0 || n > len(b.queued) {
		n = len(b.queued)
	}
	batch := b.queued[:n]
	b.queued = b.queued[n:]
	results := make([]serve.Result, len(batch))
	resolvers := make([]func(serve.Result), len(batch))
	for i, j := range batch {
		results[i] = b.resultLocked(j, err)
		resolvers[i] = j.resolve
	}
	if errors.Is(err, serve.ErrHandedOff) {
		b.handed += int64(len(batch))
	} else {
		b.resolved += int64(len(batch))
	}
	b.mu.Unlock()
	for i := range resolvers {
		resolvers[i](results[i])
	}
	return len(resolvers)
}

// Drain implements serve.Backend: stop admission, complete the backlog.
func (b *FakeBackend) Drain() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.Complete(-1)
}

// DrainForHandoff implements serve.Backend: stop admission and hand every
// queued job back (the fake has no in-flight notion — queued is queued).
func (b *FakeBackend) DrainForHandoff() int {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	return b.finish(-1, serve.ErrHandedOff)
}

// SetCheckpointErr scripts the next Checkpoint calls to fail with err
// WITHOUT draining — modeling a capture that dies before the freeze, so
// the remediator's DrainForHandoff fallback still has work to do.
func (b *FakeBackend) SetCheckpointErr(err error) {
	b.mu.Lock()
	b.ckptErr = err
	b.mu.Unlock()
}

// SetCheckpointHook scripts a callback that runs inside Checkpoint, after
// the freeze but before the image is returned — the window a mid-snapshot
// fault (a fatal XID landing while the capture walks device memory) would
// occupy on a real host. The hook runs without b.mu held, so it may
// re-enter the control plane (injecting XIDs, polling snapshots).
func (b *FakeBackend) SetCheckpointHook(fn func()) {
	b.mu.Lock()
	b.ckptHook = fn
	b.mu.Unlock()
}

// Checkpoint implements serve.Backend: with no scripted error it drains
// like DrainForHandoff and returns an image whose Queued manifest lists
// the handed-off jobs.
func (b *FakeBackend) Checkpoint() (*ckpt.Image, error) {
	b.mu.Lock()
	if err := b.ckptErr; err != nil {
		b.mu.Unlock()
		return nil, err
	}
	b.draining = true
	queued := append([]fakeJob(nil), b.queued...)
	now := b.now
	hook := b.ckptHook
	b.mu.Unlock()
	if hook != nil {
		hook()
	}

	img := &ckpt.Image{SourceHost: -1, CaptureStart: int64(now), CaptureEnd: int64(now)}
	for _, j := range queued {
		img.Queued = append(img.Queued, ckpt.JobImage{
			ID: int64(j.id), Tenant: j.tenant,
			Kind: int64(j.spec.Kind), Path: j.spec.Path, Word: j.spec.Word,
		})
	}
	b.finish(-1, serve.ErrHandedOff)
	return img, nil
}

// Restore implements serve.Backend, recording the image for inspection.
func (b *FakeBackend) Restore(img *ckpt.Image) error {
	b.mu.Lock()
	b.restored = img
	b.mu.Unlock()
	return nil
}

// Restored returns the image the last Restore received, or nil.
func (b *FakeBackend) Restored() *ckpt.Image {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restored
}

// Load implements serve.Backend.
func (b *FakeBackend) Load() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queued)
}

// ResidentPages implements serve.Backend from the scripted table.
func (b *FakeBackend) ResidentPages(path string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resident[path]
}

// Now implements serve.Backend.
func (b *FakeBackend) Now() simtime.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.now
}

// SetGPUs scripts NumGPUs.
func (b *FakeBackend) SetGPUs(n int) {
	b.mu.Lock()
	b.gpus = n
	b.mu.Unlock()
}

// NumGPUs implements serve.Backend.
func (b *FakeBackend) NumGPUs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return max(b.gpus, 1)
}

// Stats implements serve.Backend (admission count only).
func (b *FakeBackend) Stats() serve.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return serve.Stats{Queued: len(b.queued), Now: b.now}
}

var _ serve.Backend = (*FakeBackend)(nil)
