package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufs/internal/faults"
	"gpufs/internal/serve"
)

// Model-based scheduler conformance (the PR-5 POSIX-model idiom, lifted to
// the fleet): randomized submit / complete / cordon / replace schedules run
// against the control plane, with an in-memory model predicting the
// accounting after every step. Checked invariants:
//
//   - No job routed to a condemned host: a backend that has begun draining
//     never sees another Submit (counted by a recording wrapper).
//   - Capacity accounting exact: admitted − delivered == Σ host Open, and
//     each healthy host's Open equals its backend's queue length, at every
//     quiescent point.
//   - Drain always terminates: every remediation reaches Healthy or Dead
//     under a watchdog, and the final ControlPlane.Drain returns with every
//     admitted job delivered exactly once.

// recordingBackend wraps a FakeBackend and counts Submit calls that arrive
// after the backend began draining — the scheduler conformance violation.
type recordingBackend struct {
	*FakeBackend
	lateSubmits atomic.Int64
}

func (r *recordingBackend) Submit(tenant string, spec serve.Job) (*serve.Future, error) {
	fut, err := r.FakeBackend.Submit(tenant, spec)
	if errors.Is(err, serve.ErrDraining) {
		r.lateSubmits.Add(1)
	}
	return fut, err
}

// modelFleet is the in-memory model plus the per-incarnation backends.
type modelFleet struct {
	mu       sync.Mutex
	backends map[[2]int]*recordingBackend
	failNext map[int]bool
	admitted int64
	dead     map[int]bool
	incs     map[int]int
}

func (m *modelFleet) factory(hostID, incarnation int) (serve.Backend, *faults.Injector, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failNext[hostID] {
		delete(m.failNext, hostID)
		return nil, nil, fmt.Errorf("model: scripted provisioning failure for host %d", hostID)
	}
	b := &recordingBackend{FakeBackend: NewFakeBackend()}
	m.backends[[2]int{hostID, incarnation}] = b
	m.incs[hostID] = incarnation
	return b, nil, nil
}

func (m *modelFleet) current(hostID int) *recordingBackend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.backends[[2]int{hostID, m.incs[hostID]}]
}

func (m *modelFleet) all() []*recordingBackend {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*recordingBackend, 0, len(m.backends))
	for _, b := range m.backends {
		out = append(out, b)
	}
	return out
}

// remediationGrammar is one host's event log, kinds joined by (and ending
// in) a space: a capture that succeeds, fails or is discarded — or none,
// on a fatal-XID host — then a restore that succeeds or fails if there was
// an image and a replacement to put it on.
var remediationGrammar = regexp.MustCompile(
	`^(cordon drain ((checkpoint|ckpt-failed|ckpt-discard) )?handoff ((migrate|restore-failed) )?(replace|replace-failed dead) )*$`)

// TestFleetModelConformance runs the randomized schedules.
func TestFleetModelConformance(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelSchedule(t, int64(seed))
		})
	}
}

func runModelSchedule(t *testing.T, seed int64) {
	const numHosts = 4
	rng := rand.New(rand.NewSource(seed))
	m := &modelFleet{
		backends: make(map[[2]int]*recordingBackend),
		failNext: make(map[int]bool),
		dead:     make(map[int]bool),
		incs:     make(map[int]int),
	}
	cp, err := New(Config{
		StallProbes:       -1,      // the model drives completions arbitrarily slowly
		LatencyMinSamples: 1 << 30, // zero-latency fakes carry no latency signal anyway
	}, numHosts, m.factory)
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	var failed atomic.Int64
	var handoffLeaks atomic.Int64
	var wg sync.WaitGroup
	collect := func(fut *Future) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := fut.Wait()
			delivered.Add(1)
			if res.Err != nil {
				failed.Add(1)
				if errors.Is(res.Err, serve.ErrHandedOff) {
					handoffLeaks.Add(1)
				}
				if !errors.Is(res.Err, ErrNoHealthyHosts) && !errors.Is(res.Err, ErrRehomedTooOften) {
					t.Errorf("seed %d: unclassified failure: %v", seed, res.Err)
				}
			}
		}()
	}

	// settle waits for the quiescent point: no remediation in progress and
	// every admitted-but-undelivered job placed on some host.
	settle := func(step int) Snapshot {
		cp.AwaitRemediation()
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap := cp.Snapshot()
			var open, openHealthy int64
			matched := true
			for _, h := range snap.Hosts {
				open += int64(h.Open)
				if h.State == HostHealthy {
					openHealthy += int64(h.Open)
					// A completion settles on the goroutine that resolved
					// it, after the backend's queue shrank; quiescence
					// means the two agree again.
					if b := m.current(h.ID); b != nil && b.Load() != h.Open {
						matched = false
					}
				}
			}
			// Quiescent means every undelivered job is placed — and placed
			// on a live machine (re-routing off a dead host is async).
			if matched && snap.Admitted == delivered.Load()+open && open == openHealthy &&
				snap.Admitted == m.admitted {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d step %d: never settled: admitted=%d delivered=%d open=%d",
					seed, step, snap.Admitted, delivered.Load(), open)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	checkInvariants := func(step int, snap Snapshot) {
		var open int64
		for _, h := range snap.Hosts {
			if h.Open < 0 {
				t.Fatalf("seed %d step %d: host %d open %d < 0", seed, step, h.ID, h.Open)
			}
			open += int64(h.Open)
			switch h.State {
			case HostHealthy:
				if b := m.current(h.ID); b != nil && b.Load() != h.Open {
					t.Fatalf("seed %d step %d: host %d accounting: fleet open=%d backend load=%d",
						seed, step, h.ID, h.Open, b.Load())
				}
			case HostDead:
				if h.Open != 0 {
					t.Fatalf("seed %d step %d: dead host %d holds %d open jobs", seed, step, h.ID, h.Open)
				}
			default:
				t.Fatalf("seed %d step %d: host %d in transient state %v at quiescent point",
					seed, step, h.ID, h.State)
			}
		}
		if snap.Admitted-delivered.Load() != open {
			t.Fatalf("seed %d step %d: capacity accounting: admitted=%d delivered=%d Σopen=%d",
				seed, step, snap.Admitted, delivered.Load(), open)
		}
		for _, b := range m.all() {
			if n := b.lateSubmits.Load(); n != 0 {
				t.Fatalf("seed %d step %d: %d submissions routed to a draining host", seed, step, n)
			}
		}
	}

	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/model/f%d", i)
	}
	healthyCount := func() int {
		n := 0
		for _, h := range cp.Snapshot().Hosts {
			if h.State == HostHealthy {
				n++
			}
		}
		return n
	}

	steps := 150
	if testing.Short() {
		steps = 60
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // submit
			fut, err := cp.Submit(fmt.Sprintf("t%d", rng.Intn(3)), job(paths[rng.Intn(len(paths))]))
			if healthyCount() == 0 {
				if !errors.Is(err, ErrNoHealthyHosts) {
					t.Fatalf("seed %d step %d: submit to empty fleet: %v", seed, step, err)
				}
				continue
			}
			if err != nil {
				// A host may have been condemned between the count and the
				// submit only by this goroutine — ops are sequential — so
				// rejection with healthy capacity is a conformance bug.
				t.Fatalf("seed %d step %d: submit rejected with healthy hosts: %v", seed, step, err)
			}
			m.admitted++
			collect(fut)
		case op < 80: // complete some jobs on a random host
			h := rng.Intn(numHosts)
			if b := m.current(h); b != nil {
				b.Complete(rng.Intn(4) + 1)
			}
		case op < 90: // cordon a random host, maybe with a failing factory
			h := rng.Intn(numHosts)
			if m.dead[h] {
				continue
			}
			if rng.Intn(100) < 25 {
				m.mu.Lock()
				m.failNext[h] = true
				m.mu.Unlock()
				m.dead[h] = true
			}
			cp.Cordon(h, fmt.Sprintf("model step %d", step))
			snap := settle(step)
			checkInvariants(step, snap)
		default: // quiesce and audit
			snap := settle(step)
			checkInvariants(step, snap)
		}
	}

	// Drain terminates: flush every backlog, then Drain under a watchdog.
	snap := settle(steps)
	checkInvariants(steps, snap)
	for _, b := range m.all() {
		b.Complete(-1)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		cp.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("seed %d: Drain did not terminate", seed)
	}

	if delivered.Load() != m.admitted {
		t.Fatalf("seed %d: %d delivered, %d admitted", seed, delivered.Load(), m.admitted)
	}
	if handoffLeaks.Load() != 0 {
		t.Fatalf("seed %d: %d ErrHandedOff results leaked to clients", seed, handoffLeaks.Load())
	}
	final := cp.Snapshot()
	if final.Delivered() != final.Admitted {
		t.Fatalf("seed %d: fleet accounts %d delivered of %d admitted", seed, final.Delivered(), final.Admitted)
	}
	if int64(len(m.dead)) != final.DeadHosts {
		t.Fatalf("seed %d: model predicts %d dead hosts, fleet reports %d", seed, len(m.dead), final.DeadHosts)
	}
	// Remediation event grammar per host.
	perHost := make(map[int][]string)
	for _, ev := range cp.Events() {
		perHost[ev.Host] = append(perHost[ev.Host], ev.Kind)
	}
	for h, kinds := range perHost {
		if !remediationGrammar.MatchString(strings.Join(kinds, " ") + " ") {
			t.Fatalf("seed %d: host %d event grammar violation: %v", seed, h, kinds)
		}
	}
}
