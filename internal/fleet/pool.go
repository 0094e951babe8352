package fleet

import (
	"fmt"

	"gpufs/internal/faults"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// HostState is one host's position in the remediation state machine:
//
//	Healthy ──cordon──▶ Cordoned ──▶ Draining ──▶ Replacing ──▶ Healthy
//	                                                   └──────▶ Dead
//
// Only Healthy hosts take traffic. Cordoned hosts await the remediator;
// Draining hosts are handing queued jobs back for re-routing while their
// in-flight batches finish; Replacing hosts are being rebuilt by the host
// factory; Dead hosts are capacity the factory failed to restore.
type HostState int

// Host states.
const (
	HostHealthy HostState = iota
	HostCordoned
	HostDraining
	HostReplacing
	HostDead
	numHostStates
)

// String names the state (also the metrics label value).
func (s HostState) String() string {
	switch s {
	case HostHealthy:
		return "healthy"
	case HostCordoned:
		return "cordoned"
	case HostDraining:
		return "draining"
	case HostReplacing:
		return "replacing"
	case HostDead:
		return "dead"
	}
	return fmt.Sprintf("HostState(%d)", int(s))
}

// hostHealth is the monitor's per-host signal accumulators, reset on
// replacement (a fresh machine gets a clean record).
type hostHealth struct {
	warnXIDs     int64
	criticalXIDs int64
	fatalXIDs    int64
	// latEWMA is the exponentially weighted moving average of job
	// latencies completed on this host; latSamples counts observations.
	latEWMA    simtime.Duration
	latSamples int
	// beatsMissed counts fleet-wide completions since this host, while
	// loaded, last completed a job — the virtual-time heartbeat.
	beatsMissed int
}

// host is one managed serving host.
type host struct {
	id          int
	incarnation int
	backend     serve.Backend
	inj         *faults.Injector // nil for backends without a fault layer
	state       HostState
	reason      string // why the host left Healthy
	// open counts fleet-admitted jobs outstanding on the CURRENT
	// incarnation; an attempt that ran on a replaced incarnation does not
	// touch it when it settles.
	open   int
	health hostHealth
}

// HostInfo is one host's externally visible status.
type HostInfo struct {
	ID          int
	Incarnation int
	State       HostState
	Reason      string
	// Open is the fleet's outstanding-job count on the host; Load is the
	// backend's own queued+inflight figure at snapshot time.
	Open, Load int
	// WarnXIDs/CriticalXIDs/FatalXIDs are the health monitor's event
	// counters for the current incarnation.
	WarnXIDs, CriticalXIDs, FatalXIDs int64
	// LatencyEWMA is the monitor's smoothed job latency on this host.
	LatencyEWMA simtime.Duration
}

// Event is one entry in the control plane's remediation log.
type Event struct {
	Seq  int
	Host int
	// Kind is the transition: "cordon", "drain", "handoff", "replace",
	// "replace-failed", "dead" — plus, on the migrate-first path,
	// "checkpoint", "migrate", "ckpt-failed", "ckpt-discard", and
	// "restore-failed".
	Kind   string
	Detail string
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("[%d] host %d: %s (%s)", e.Seq, e.Host, e.Kind, e.Detail)
}

// Snapshot is a consistent view of the fleet.
type Snapshot struct {
	Hosts []HostInfo
	// States counts hosts by state.
	States map[HostState]int
	// Admitted counts fleet-admitted jobs; Delivered = Succeeded+Failed
	// counts results handed to clients; Rebalanced counts job re-routings
	// across hosts (handoffs plus failure rehomes); Remediations counts
	// completed cordon→drain→replace cycles; Migrations counts the subset
	// whose replacement entered rotation warm from a restored checkpoint;
	// DeadHosts counts capacity the factory could not restore.
	Admitted, Succeeded, Failed, Rebalanced int64
	Remediations, Migrations, DeadHosts     int64
}

// Delivered sums results handed to clients.
func (s Snapshot) Delivered() int64 { return s.Succeeded + s.Failed }

// Snapshot captures the fleet's current state.
func (cp *ControlPlane) Snapshot() Snapshot {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	snap := Snapshot{
		States:       make(map[HostState]int, int(numHostStates)),
		Admitted:     cp.admitted,
		Succeeded:    cp.succeeded,
		Failed:       cp.failed,
		Rebalanced:   cp.rebalanced,
		Remediations: cp.remediations,
		Migrations:   cp.migrations,
	}
	for _, h := range cp.hosts {
		info := HostInfo{
			ID:           h.id,
			Incarnation:  h.incarnation,
			State:        h.state,
			Reason:       h.reason,
			Open:         h.open,
			WarnXIDs:     h.health.warnXIDs,
			CriticalXIDs: h.health.criticalXIDs,
			FatalXIDs:    h.health.fatalXIDs,
			LatencyEWMA:  h.health.latEWMA,
		}
		if h.state != HostDead {
			info.Load = h.backend.Load()
		}
		snap.Hosts = append(snap.Hosts, info)
		snap.States[h.state]++
		if h.state == HostDead {
			snap.DeadHosts++
		}
	}
	return snap
}

// Events returns a copy of the remediation log in append order.
func (cp *ControlPlane) Events() []Event {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return append([]Event(nil), cp.events...)
}

// eventLocked appends to the remediation log (cp.mu held).
func (cp *ControlPlane) eventLocked(hostID int, kind, format string, args ...any) {
	cp.events = append(cp.events, Event{
		Seq:    len(cp.events),
		Host:   hostID,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// statesLocked counts hosts by state (cp.mu held); the metrics gauge
// functions read through it.
func (cp *ControlPlane) countState(want HostState) int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var n int64
	for _, h := range cp.hosts {
		if h.state == want {
			n++
		}
	}
	return n
}
