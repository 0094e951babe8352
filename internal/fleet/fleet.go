// Package fleet is the multi-host control plane over the serving layer:
// the step from "a machine" (one gpufs.System behind a serve.Server) to a
// pool of machines behind one admission frontend. GPUfs (§2) argued the
// file system API should follow the GPU; this layer argues the *fleet
// manager* should too — hosts are cattle whose GPUs fail in XID-shaped
// ways, and the control plane's job is to keep client traffic flowing
// while a sick host is cordoned, drained, and replaced.
//
// The pieces, one file each:
//
//   - pool.go: the capacity pool — host records, the
//     Healthy→Cordoned→Draining→Replacing→{Healthy,Dead} state machine,
//     exact per-host accounting of outstanding jobs, snapshots and the
//     remediation event log.
//   - scheduler.go: tenant-aware placement — jobs route to the healthy
//     host whose GPU buffer caches already hold their file (cache
//     affinity across machines), cold files hash to a stable home, and
//     a busy host over its share spills to the least-loaded one.
//   - health.go: the monitor — consumes XID-style device-error events
//     from each host's fault layer (fatal ⇒ cordon now; a burst of
//     criticals ⇒ cordon), plus virtual-time heartbeat and latency
//     signals (a loaded host that stops completing, or whose smoothed
//     latency blows past the fleet median, is cordoned as degraded).
//   - remediate.go: the remediation loop — cordoned hosts are drained
//     via serve.Backend.DrainForHandoff (queued jobs come back unexecuted
//     and re-route to healthy hosts), then rebuilt by the host factory.
//
// Every fleet-admitted job completes exactly once. No goroutine waits for
// it: each attempt's serve-level Future runs the job's settle on the
// goroutine that resolves it, which delivers success or a classified
// error, or re-routes a handed-off or sick-host failure within a bounded
// rehome budget — never silence, and never a double delivery (the serve
// layer's Future resolves once, and a job is only resubmitted after its
// previous attempt's Future resolved).
package fleet

import (
	"errors"
	"fmt"
	"sync"

	"gpufs/internal/faults"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
)

// Sentinel errors.
var (
	// ErrClosed rejects submissions after Drain began.
	ErrClosed = errors.New("fleet: control plane is draining")
	// ErrNoHealthyHosts rejects a submission (or fails a re-routed job)
	// when no host can take traffic and none will come back.
	ErrNoHealthyHosts = errors.New("fleet: no healthy hosts")
	// ErrRehomedTooOften fails a job whose re-routing budget ran out.
	ErrRehomedTooOften = errors.New("fleet: job re-routed too many times")
)

// HostFactory builds (or rebuilds) one serving host. It is called with
// incarnation 0 for the initial fleet and incarnation n+1 when the
// remediator replaces a host. The returned injector is the host's fault
// layer, used for XID subscription and organic XID scheduling; nil is
// legal for backends without one (fakes).
type HostFactory func(hostID, incarnation int) (serve.Backend, *faults.Injector, error)

// Config tunes the control plane. The zero value gets defaults from New.
type Config struct {
	// MaxRehomes bounds how many times one job may be re-routed across
	// hosts (handoffs plus sick-host retries) before it fails with
	// ErrRehomedTooOften. Default 8.
	MaxRehomes int
	// SpillLoad is the floor of the spill rule: a host carrying fewer
	// outstanding jobs always keeps its rank as affinity target or home.
	// At SpillLoad or more it loses that rank once it also carries
	// (1+ε) times its share of the healthy hosts' jobs, by GPU count
	// (ε = 1/10; scheduler.go), and its jobs spill to the least-loaded
	// healthy host. Default 64.
	SpillLoad int
	// CriticalXIDLimit cordons a host after this many critical XID
	// events on one incarnation. Default 3.
	CriticalXIDLimit int
	// LatencyFactor cordons a host whose latency EWMA exceeds this
	// multiple of the median EWMA of the other healthy hosts (with at
	// least LatencyMinSamples jobs observed everywhere). Default 8.
	LatencyFactor float64
	// LatencyMinSamples is the minimum per-host completions before the
	// latency detector may fire. Default 16.
	LatencyMinSamples int
	// StallProbes cordons a loaded host after this many fleet-wide
	// completions without a completion of its own — the virtual-time
	// heartbeat. 0 disables; default 4096 (generous: it catches a truly
	// wedged host in a soak without false-firing on batching skew).
	StallProbes int
	// Metrics, when non-nil, receives the fleet metric families
	// (gpufs_fleet_*).
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxRehomes <= 0 {
		out.MaxRehomes = 8
	}
	if out.SpillLoad <= 0 {
		out.SpillLoad = 64
	}
	if out.CriticalXIDLimit <= 0 {
		out.CriticalXIDLimit = 3
	}
	if out.LatencyFactor <= 0 {
		out.LatencyFactor = 8
	}
	if out.LatencyMinSamples <= 0 {
		out.LatencyMinSamples = 16
	}
	if out.StallProbes == 0 {
		out.StallProbes = 4096
	} else if out.StallProbes < 0 {
		out.StallProbes = 0 // explicit disable
	}
	return out
}

// Result is a fleet job's outcome: the serving result plus where it
// finally ran and how often the fleet had to move it.
type Result struct {
	serve.Result
	// Host is the id of the host that delivered the final attempt, -1 if
	// the job never reached a host.
	Host int
	// Rehomes counts cross-host re-routings this job survived.
	Rehomes int
}

// Future is the pending result of a fleet-submitted job. It resolves once,
// and Wait and Done may then be used any number of times, by any goroutine.
type Future struct {
	done chan struct{}
	res  Result // written once, before done closes
}

// Done returns a channel that closes when the result is in.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the result is in and returns it.
func (f *Future) Wait() Result {
	<-f.done
	return f.res
}

// fleetJob is the control plane's record of one admitted job.
type fleetJob struct {
	cp      *ControlPlane
	tenant  string
	spec    serve.Job
	fut     *Future
	rehomes int
	// h and incarnation are the host running the current attempt:
	// placeLocked writes them before the attempt's Future gets settle,
	// which reads them.
	h           *host
	incarnation int
}

// ControlPlane owns the fleet: N hosts, the scheduler, the health monitor,
// and the remediation loop.
type ControlPlane struct {
	cfg     Config
	factory HostFactory

	mu       sync.Mutex
	cond     *sync.Cond
	hosts    []*host
	route    []*host // routeOrderLocked's order, reused by every placement
	events   []Event
	closed   bool // no new admissions
	stopping bool // remediator should exit once no host is cordoned

	admitted, succeeded, failed int64
	rebalanced, remediations    int64
	migrations                  int64

	met *fleetMetrics

	wg    sync.WaitGroup // admitted jobs not yet delivered
	remWG sync.WaitGroup // remediator
}

// New builds a control plane over numHosts hosts created by factory
// (incarnation 0 each) and starts the remediation loop. The factory is
// retained to rebuild hosts the health monitor condemns.
func New(cfg Config, numHosts int, factory HostFactory) (*ControlPlane, error) {
	if numHosts < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 host, got %d", numHosts)
	}
	if factory == nil {
		return nil, errors.New("fleet: nil host factory")
	}
	cp := &ControlPlane{cfg: cfg.withDefaults(), factory: factory}
	cp.cond = sync.NewCond(&cp.mu)
	for i := 0; i < numHosts; i++ {
		b, inj, err := factory(i, 0)
		if err != nil {
			return nil, fmt.Errorf("fleet: building host %d: %w", i, err)
		}
		h := &host{id: i, backend: b, inj: inj, state: HostHealthy}
		cp.hosts = append(cp.hosts, h)
		cp.subscribeXID(i, 0, inj)
	}
	cp.met = newFleetMetrics(cp.cfg.Metrics, cp)
	cp.remWG.Add(1)
	go cp.remediator()
	return cp, nil
}

// Config returns the control plane's defaulted configuration.
func (cp *ControlPlane) Config() Config { return cp.cfg }

// subscribeXID routes the injector's XID events into the health monitor,
// tagged with the incarnation so a replaced machine's stragglers are
// ignored.
func (cp *ControlPlane) subscribeXID(hostID, incarnation int, inj *faults.Injector) {
	if inj == nil {
		return
	}
	inj.SubscribeXID(func(ev faults.XIDEvent) { cp.onXID(hostID, incarnation, ev) })
}

// Submit admits one job for tenant and routes it to a healthy host. Like
// serve.Server.Submit it never blocks: the job is admitted (returning its
// Future) or rejected — with serve's OverloadError when every eligible
// host's tenant queue is full, ErrNoHealthyHosts when no host can take
// traffic, or ErrClosed after Drain began. Once admitted, the job's Future
// completes exactly once even if its host is killed mid-flight: the
// control plane re-routes it within the rehome budget and otherwise fails
// it with a classified error.
func (cp *ControlPlane) Submit(tenant string, spec serve.Job) (*Future, error) {
	cp.mu.Lock()
	if cp.closed {
		cp.mu.Unlock()
		return nil, ErrClosed
	}
	j := &fleetJob{cp: cp, tenant: tenant, spec: spec, fut: &Future{done: make(chan struct{})}}
	sfut, err := cp.placeLocked(j)
	if err != nil {
		cp.mu.Unlock()
		return nil, err
	}
	cp.admitted++
	cp.met.admitted.Inc()
	cp.wg.Add(1)
	cp.mu.Unlock()
	// Attached unlocked: a backend may resolve inside its Submit, and then
	// settle runs here and takes cp.mu.
	sfut.Then(j.settle)
	return j.fut, nil
}

// settle ends one attempt of j. It runs on the goroutine that resolved the
// attempt's host-level Future (a serve worker, the remediator inside a
// handoff, or the attaching goroutine if the result was already in), with no
// backend lock held, and takes only cp.mu. It delivers success and
// classified failures there; a handoff or a sick-host failure within the
// rehome budget goes to rehome, on a goroutine of its own, because finding
// the job a new host may wait for capacity.
func (j *fleetJob) settle(res serve.Result) {
	cp := j.cp
	cp.mu.Lock()
	defer cp.mu.Unlock()
	h, incarnation := j.h, j.incarnation
	cp.met.openJobs.Add(-1)
	if h.incarnation == incarnation {
		h.open--
	}
	hostHealthy := h.state == HostHealthy && h.incarnation == incarnation
	cp.cond.Broadcast()

	switch {
	case res.Err == nil:
	case errors.Is(res.Err, serve.ErrHandedOff),
		!hostHealthy && j.rehomes < cp.cfg.MaxRehomes:
		// A handoff never executed on h: move it wholesale. A job that
		// failed on a host the monitor has since condemned (or that was
		// already being drained) more likely met the host's fault than
		// its own: re-run it elsewhere — safe for these read-only
		// kernels, and delivery stays exactly-once because this
		// attempt's Future resolved without reaching the client.
		go cp.rehome(j)
		return
	}
	cp.noteCompletionLocked(h, incarnation, res)
	cp.deliverLocked(j, res, h.id)
}

// rehome moves j to a new host and attaches settle to the new attempt. It
// runs on its own goroutine, never on the one that resolved the previous
// attempt: that may be a serve worker or the remediator mid-handoff, and
// resubmit may wait on cp.cond for capacity that only their progress frees.
func (cp *ControlPlane) rehome(j *fleetJob) {
	j.rehomes++
	if sfut := cp.resubmit(j); sfut != nil {
		sfut.Then(j.settle)
	}
}

// resubmit places an already-admitted job on a new host, waiting out
// transient no-capacity windows (every wait is bounded by fleet progress:
// a completion, a state transition, or shutdown re-checks the condition).
// It returns the new attempt's Future, or nil after delivering a terminal
// failure itself.
func (cp *ControlPlane) resubmit(j *fleetJob) *serve.Future {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if j.rehomes > cp.cfg.MaxRehomes {
		cp.deliverLocked(j, serve.Result{
			Tenant: j.tenant, Job: j.spec,
			Err: fmt.Errorf("%w (%d rehomes)", ErrRehomedTooOften, j.rehomes),
		}, -1)
		return nil
	}
	cp.rebalanced++
	cp.met.rebalanced.Inc()
	for {
		sfut, err := cp.placeLocked(j)
		if err == nil {
			return sfut
		}
		if errors.Is(err, ErrNoHealthyHosts) && !cp.remediationPendingLocked() {
			// Capacity is gone and nothing is coming back: fail loudly.
			cp.deliverLocked(j, serve.Result{
				Tenant: j.tenant, Job: j.spec, Err: err,
			}, -1)
			return nil
		}
		// Overloaded everywhere, or hosts mid-remediation: progress is
		// guaranteed (admitted jobs complete; the remediator always
		// reaches Healthy or Dead), so wait for the next fleet event.
		cp.cond.Wait()
	}
}

// remediationPendingLocked reports whether any host will change state
// without external input (cp.mu held).
func (cp *ControlPlane) remediationPendingLocked() bool {
	for _, h := range cp.hosts {
		switch h.state {
		case HostCordoned, HostDraining, HostReplacing:
			return true
		}
	}
	return false
}

// deliverLocked completes the fleet Future exactly once, folds the outcome
// into the fleet counters, and ends the job's count in cp.wg. cp.mu held.
func (cp *ControlPlane) deliverLocked(j *fleetJob, res serve.Result, hostID int) {
	if res.Err == nil {
		cp.succeeded++
		cp.met.succeeded.Inc()
	} else {
		cp.failed++
		cp.met.failedJobs.Inc()
	}
	cp.cond.Broadcast()
	j.fut.res = Result{Result: res, Host: hostID, Rehomes: j.rehomes}
	close(j.fut.done)
	cp.wg.Done()
}

// Drain stops admission, waits for every admitted job to deliver, winds
// down the remediator (finishing any in-progress replacement), and drains
// the surviving hosts. Call once.
func (cp *ControlPlane) Drain() {
	cp.mu.Lock()
	cp.closed = true
	cp.cond.Broadcast()
	cp.mu.Unlock()

	cp.wg.Wait() // every admitted job delivered

	cp.mu.Lock()
	cp.stopping = true
	cp.cond.Broadcast()
	cp.mu.Unlock()
	cp.remWG.Wait()

	cp.mu.Lock()
	backends := make([]serve.Backend, 0, len(cp.hosts))
	for _, h := range cp.hosts {
		if h.state == HostHealthy {
			backends = append(backends, h.backend)
		}
	}
	cp.mu.Unlock()
	for _, b := range backends {
		b.Drain()
	}
}

// AwaitRemediation blocks until no host is cordoned, draining, or
// replacing — the fleet is quiescent (every host Healthy or Dead).
func (cp *ControlPlane) AwaitRemediation() {
	cp.mu.Lock()
	for cp.remediationPendingLocked() {
		cp.cond.Wait()
	}
	cp.mu.Unlock()
}
