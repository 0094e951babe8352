package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufs/internal/faults"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// fakeFleet is the unit-test host factory: a FakeBackend (plus a real
// fault injector for the XID channel) per (host, incarnation), all
// retained so tests can script and inspect any machine ever built.
type fakeFleet struct {
	mu       sync.Mutex
	auto     bool
	fakes    map[[2]int]*FakeBackend
	injs     map[[2]int]*faults.Injector
	failNext map[int]error // hostID → error the next build returns
	builds   int
	// hold, if set before New, keeps every replacement build (incarnation
	// past 0) waiting until it is closed.
	hold chan struct{}
}

func newFakeFleet(auto bool) *fakeFleet {
	return &fakeFleet{
		auto:     auto,
		fakes:    make(map[[2]int]*FakeBackend),
		injs:     make(map[[2]int]*faults.Injector),
		failNext: make(map[int]error),
	}
}

func (ff *fakeFleet) factory(hostID, incarnation int) (serve.Backend, *faults.Injector, error) {
	if ff.hold != nil && incarnation > 0 {
		<-ff.hold
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if err := ff.failNext[hostID]; err != nil {
		delete(ff.failNext, hostID)
		return nil, nil, err
	}
	ff.builds++
	b := NewFakeBackend()
	b.SetAuto(ff.auto)
	inj := faults.New(faults.Config{Seed: int64(1000*hostID + incarnation)})
	ff.fakes[[2]int{hostID, incarnation}] = b
	ff.injs[[2]int{hostID, incarnation}] = inj
	return b, inj, nil
}

func (ff *fakeFleet) fake(hostID, inc int) *FakeBackend {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.fakes[[2]int{hostID, inc}]
}

func (ff *fakeFleet) inj(hostID, inc int) *faults.Injector {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.injs[[2]int{hostID, inc}]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func job(path string) serve.Job { return serve.Job{Kind: serve.JobGrep, Path: path, Word: "w"} }

// TestFleetSubmitComplete drives the basic path: jobs route across hosts,
// complete, and the fleet accounts for every one exactly once.
func TestFleetSubmitComplete(t *testing.T) {
	ff := newFakeFleet(true)
	reg := metrics.New()
	cp, err := New(Config{Metrics: reg}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 60
	var futs []*Future
	for i := 0; i < jobs; i++ {
		fut, err := cp.Submit(fmt.Sprintf("t%d", i%4), job(fmt.Sprintf("/f/%d", i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	for i, fut := range futs {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if res.Host < 0 || res.Host > 2 {
			t.Fatalf("job %d reports host %d", i, res.Host)
		}
		if res.Rehomes != 0 {
			t.Fatalf("job %d rehomed %d times in a healthy fleet", i, res.Rehomes)
		}
	}
	cp.Drain()
	snap := cp.Snapshot()
	if snap.Admitted != jobs || snap.Succeeded != jobs || snap.Failed != 0 {
		t.Fatalf("accounting: admitted=%d succeeded=%d failed=%d, want %d/%d/0",
			snap.Admitted, snap.Succeeded, snap.Failed, jobs, jobs)
	}
	for _, h := range snap.Hosts {
		if h.Open != 0 {
			t.Fatalf("host %d still reports %d open after drain", h.ID, h.Open)
		}
	}
	// Fleet metrics made it into the registry.
	var sawHosts, sawJobs bool
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "gpufs_fleet_hosts":
			sawHosts = true
		case "gpufs_fleet_jobs_total":
			sawJobs = true
		}
	}
	if !sawHosts || !sawJobs {
		t.Fatalf("fleet metric families missing: hosts=%v jobs=%v", sawHosts, sawJobs)
	}
}

// TestFleetSchedulerAffinityAndSpill pins the routing order: resident
// pages draw a job to its warm host; a saturated warm host spills to the
// least-loaded one.
func TestFleetSchedulerAffinityAndSpill(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{SpillLoad: 4}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	warm := ff.fake(2, 0)
	warm.SetResident("/hot", 512)

	for i := 0; i < 4; i++ {
		if _, err := cp.Submit("t", job("/hot")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if a, _, _ := warm.Counts(); a != 4 {
		t.Fatalf("warm host admitted %d, want all 4 (affinity)", a)
	}
	// Host 2 is at SpillLoad: the next /hot job must go elsewhere.
	if _, err := cp.Submit("t", job("/hot")); err != nil {
		t.Fatalf("spill submit: %v", err)
	}
	if a, _, _ := warm.Counts(); a != 4 {
		t.Fatalf("warm host admitted %d after saturation, want 4 (spill)", a)
	}
	if got := ff.fake(0, 0).Load() + ff.fake(1, 0).Load(); got != 1 {
		t.Fatalf("spilled job not on a cold host (loads sum to %d)", got)
	}
	for _, h := range []int{0, 1, 2} {
		ff.fake(h, 0).Complete(-1)
	}
	cp.Drain()
}

// TestFleetCordonDrainReplace walks one full remediation: a cordoned host
// hands its queued jobs off unexecuted (the dedup half of the chaos
// invariant), the jobs land on healthy hosts and complete, and the slot
// returns with a new incarnation and a clean record. The replacement waits
// until the second Cordon has returned: a replaced host 0 is healthy again,
// and would take that Cordon.
func TestFleetCordonDrainReplace(t *testing.T) {
	ff := newFakeFleet(false)
	ff.hold = make(chan struct{})
	cp, err := New(Config{}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	sick := ff.fake(0, 0)
	sick.SetResident("/pinned", 64) // draw the jobs to host 0
	var futs []*Future
	for i := 0; i < 5; i++ {
		fut, err := cp.Submit("t", job("/pinned"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	if a, _, _ := sick.Counts(); a != 5 {
		t.Fatalf("affinity routed %d/5 jobs to host 0", a)
	}

	if !cp.Cordon(0, "test kill") {
		t.Fatal("Cordon(0) refused")
	}
	again := cp.Cordon(0, "again")
	close(ff.hold)
	if again {
		t.Fatal("Cordon(0) accepted twice")
	}
	cp.AwaitRemediation()

	// The drained machine handed everything off and executed nothing.
	if _, resolved, handed := sick.Counts(); resolved != 0 || handed != 5 {
		t.Fatalf("sick host resolved=%d handed=%d, want 0/5", resolved, handed)
	}
	// The jobs were re-routed and are queued on the survivors (or the
	// replaced host 0, which is healthy again).
	waitFor(t, "rerouted jobs to queue", func() bool {
		n := ff.fake(1, 0).Load() + ff.fake(2, 0).Load()
		if nb := ff.fake(0, 1); nb != nil {
			n += nb.Load()
		}
		return n == 5
	})
	for _, k := range [][2]int{{0, 1}, {1, 0}, {2, 0}} {
		if b := ff.fake(k[0], k[1]); b != nil {
			b.Complete(-1)
		}
	}
	for i, fut := range futs {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("job %d failed across remediation: %v", i, res.Err)
		}
		if errors.Is(res.Err, serve.ErrHandedOff) {
			t.Fatalf("job %d leaked ErrHandedOff to the client", i)
		}
		if res.Rehomes != 1 {
			t.Fatalf("job %d rehomed %d times, want 1", i, res.Rehomes)
		}
	}

	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Rebalanced != 5 {
		t.Fatalf("remediations=%d rebalanced=%d, want 1/5", snap.Remediations, snap.Rebalanced)
	}
	if h := snap.Hosts[0]; h.State != HostHealthy || h.Incarnation != 1 {
		t.Fatalf("host 0 after remediation: %v inc %d, want healthy inc 1", h.State, h.Incarnation)
	}
	// Event log tells the full story in order.
	var kinds []string
	for _, ev := range cp.Events() {
		if ev.Host == 0 {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"cordon", "drain", "checkpoint", "handoff", "migrate", "replace"}
	if len(kinds) != len(want) {
		t.Fatalf("host 0 events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("host 0 events %v, want %v", kinds, want)
		}
	}
	cp.Drain()
}

// TestFleetXIDHealth checks the XID policy: warnings are counted only, a
// fatal code cordons immediately, and criticals cordon at the threshold —
// all ignoring stragglers from replaced incarnations.
func TestFleetXIDHealth(t *testing.T) {
	ff := newFakeFleet(true)
	cp, err := New(Config{CriticalXIDLimit: 3}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}

	// Warnings: no state change.
	inj0 := ff.inj(0, 0)
	for i := 0; i < 10; i++ {
		inj0.InjectXID(0, 31, simtime.Time(i)) // page fault: warn
	}
	if snap := cp.Snapshot(); snap.Hosts[0].State != HostHealthy || snap.Hosts[0].WarnXIDs != 10 {
		t.Fatalf("after warnings: %v warn=%d", snap.Hosts[0].State, snap.Hosts[0].WarnXIDs)
	}

	// Fatal: immediate cordon, then remediation.
	inj0.InjectXID(0, 79, 100) // fallen off the bus
	cp.AwaitRemediation()
	snap := cp.Snapshot()
	if h := snap.Hosts[0]; h.State != HostHealthy || h.Incarnation != 1 {
		t.Fatalf("host 0 after fatal XID: %v inc %d", h.State, h.Incarnation)
	}
	// The new incarnation's record is clean, and the old injector's
	// stragglers no longer count.
	inj0.InjectXID(0, 79, 200)
	if snap := cp.Snapshot(); snap.Hosts[0].FatalXIDs != 0 || snap.Hosts[0].State != HostHealthy {
		t.Fatalf("stale-incarnation XID leaked into fresh record: %+v", snap.Hosts[0])
	}

	// Criticals: two are tolerated, the third condemns.
	inj1 := ff.inj(1, 0)
	inj1.InjectXID(0, 119, 300)
	inj1.InjectXID(0, 119, 301)
	if snap := cp.Snapshot(); snap.Hosts[1].State != HostHealthy {
		t.Fatalf("host 1 cordoned below critical threshold: %+v", snap.Hosts[1])
	}
	inj1.InjectXID(0, 119, 302)
	cp.AwaitRemediation()
	if snap := cp.Snapshot(); snap.Hosts[1].Incarnation != 1 {
		t.Fatalf("host 1 not remediated after %d criticals", 3)
	}
	cp.Drain()
}

// TestFleetReplaceFailureAndExhaustion kills every host with a factory
// that cannot rebuild: slots go Dead, and once no capacity remains Submit
// fails fast with ErrNoHealthyHosts.
func TestFleetReplaceFailureAndExhaustion(t *testing.T) {
	ff := newFakeFleet(true)
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	ff.mu.Lock()
	ff.failNext[0] = errors.New("no spares")
	ff.failNext[1] = errors.New("no spares")
	ff.mu.Unlock()

	cp.Cordon(0, "kill")
	cp.Cordon(1, "kill")
	cp.AwaitRemediation()

	snap := cp.Snapshot()
	if snap.DeadHosts != 2 {
		t.Fatalf("dead hosts = %d, want 2", snap.DeadHosts)
	}
	if _, err := cp.Submit("t", job("/f")); !errors.Is(err, ErrNoHealthyHosts) {
		t.Fatalf("submit to dead fleet: %v, want ErrNoHealthyHosts", err)
	}
	cp.Drain()
}

// TestFleetLatencyDegradation cordons a host that answers, but an order of
// magnitude slower than its peers, via the EWMA-vs-median detector.
func TestFleetLatencyDegradation(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{
		LatencyFactor:     4,
		LatencyMinSamples: 8,
		StallProbes:       -1, // isolate the latency signal
	}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	clocks := make(map[int]simtime.Time)
	complete := func(hostID int, lat simtime.Duration) {
		b := ff.fake(hostID, 0)
		b.SetResident("/only-here", 1)
		fut, err := cp.Submit("t", job("/only-here"))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		b.SetResident("/only-here", 0)
		clocks[hostID] = clocks[hostID].Add(lat)
		b.AdvanceTo(clocks[hostID])
		b.Complete(1)
		fut.Wait()
	}
	// Interleave: peers answer in 1ms, host 0 in 100ms. Stop driving the
	// slow host once the detector condemns it (its cordon happens inside
	// its own completion, before the result is delivered, so checking at
	// the loop top cannot race a pending completion).
	for i := 0; i < 40; i++ {
		// Stop once host 0 leaves Healthy — or has already been condemned
		// AND replaced (healthy again, but at a new incarnation).
		if h := cp.Snapshot().Hosts[0]; h.State != HostHealthy || h.Incarnation != 0 {
			break
		}
		complete(1, simtime.Millisecond)
		complete(2, simtime.Millisecond)
		complete(0, 100*simtime.Millisecond)
	}
	cp.AwaitRemediation()
	snap := cp.Snapshot()
	if snap.Hosts[0].Incarnation != 1 {
		t.Fatalf("slow host not remediated; snapshot: %+v", snap.Hosts[0])
	}
	if snap.Hosts[1].Incarnation != 0 || snap.Hosts[2].Incarnation != 0 {
		t.Fatal("healthy peer was condemned by the latency detector")
	}
	var reason string
	for _, ev := range cp.Events() {
		if ev.Host == 0 && ev.Kind == "cordon" {
			reason = ev.Detail
		}
	}
	if !strings.Contains(reason, "degraded") {
		t.Fatalf("cordon reason %q does not cite degradation", reason)
	}
	cp.Drain()
}

// TestFleetStallDetection cordons a host that holds jobs but stops
// completing them while the rest of the fleet makes progress; the wedged
// host's jobs come back and finish elsewhere.
func TestFleetStallDetection(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{
		StallProbes:       6,
		LatencyMinSamples: 1 << 30, // isolate the heartbeat signal
	}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	wedged := ff.fake(0, 0)
	wedged.SetResident("/stuck", 1)
	stuck, err := cp.Submit("t", job("/stuck"))
	if err != nil {
		t.Fatal(err)
	}
	wedged.SetResident("/stuck", 0)
	if a, _, _ := wedged.Counts(); a != 1 {
		t.Fatalf("wedged host admitted %d, want 1", a)
	}

	// Fleet heartbeats: completions on the healthy hosts. Flush host 1
	// wholesale each beat — once host 0 is condemned its handed-off job
	// may requeue ahead of the beat job in the same FIFO.
	other := ff.fake(1, 0)
	other.SetResident("/beat", 1)
	for i := 0; i < 8; i++ {
		fut, err := cp.Submit("t", job("/beat"))
		if err != nil {
			t.Fatalf("beat submit %d: %v", i, err)
		}
		waitFor(t, "beat delivery", func() bool {
			other.Complete(-1)
			select {
			case <-fut.Done():
				if res := fut.Wait(); res.Err != nil {
					t.Fatalf("beat job %d failed: %v", i, res.Err)
				}
				return true
			default:
				return false
			}
		})
	}
	cp.AwaitRemediation()
	if snap := cp.Snapshot(); snap.Hosts[0].Incarnation != 1 {
		t.Fatalf("wedged host not remediated: %+v", snap.Hosts[0])
	}
	// The stuck job was handed off and re-routed; keep flushing every
	// machine ever built until it delivers.
	var res Result
	waitFor(t, "stuck job delivery", func() bool {
		for _, k := range [][2]int{{0, 1}, {1, 0}, {2, 0}} {
			if b := ff.fake(k[0], k[1]); b != nil {
				b.Complete(-1)
			}
		}
		select {
		case <-stuck.Done():
			res = stuck.Wait()
			return true
		default:
			return false
		}
	})
	if res.Err != nil {
		t.Fatalf("stuck job failed: %v", res.Err)
	}
	if res.Rehomes != 1 {
		t.Fatalf("stuck job rehomes = %d, want 1", res.Rehomes)
	}
	cp.Drain()
}

// TestFleetSickHostRetry re-runs a job that failed on a host condemned
// while it was in flight: the failure is charged to the machine, not the
// job, and the retry succeeds elsewhere.
func TestFleetSickHostRetry(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	sick := ff.fake(0, 0)
	sick.SetResident("/f", 1)
	fut, err := cp.Submit("t", job("/f"))
	if err != nil {
		t.Fatal(err)
	}
	sick.SetResident("/f", 0)

	// Condemn the host, then fail the in-flight job (the order a dying
	// machine produces: monitor fires, straggling completions error out).
	// FakeBackend.Fail resolves the future normally — from the fleet's
	// view this job completed with an error on a host that has since left
	// Healthy, which must trigger a re-route rather than a client error.
	cp.Cordon(0, "dying")
	sick.Fail(1, errors.New("device wedged"))
	cp.AwaitRemediation()

	waitFor(t, "retry queued elsewhere", func() bool {
		n := ff.fake(1, 0).Load()
		if nb := ff.fake(0, 1); nb != nil {
			n += nb.Load()
		}
		return n == 1
	})
	if b := ff.fake(0, 1); b != nil {
		b.Complete(-1)
	}
	ff.fake(1, 0).Complete(-1)
	res := fut.Wait()
	if res.Err != nil {
		t.Fatalf("job failed despite healthy capacity: %v", res.Err)
	}
	if res.Rehomes == 0 {
		t.Fatal("job reports zero rehomes after a sick-host retry")
	}
	cp.Drain()
}
