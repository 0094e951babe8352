package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestFleetNoGoroutinePerJob pins that an admitted job costs the fleet no
// goroutine while it waits: its host-level Future settles it on the
// goroutine that resolves it. With a watcher per job, 2,000 queued jobs
// were 2,000 parked goroutines.
func TestFleetNoGoroutinePerJob(t *testing.T) {
	const jobs = 2000
	ff := newFakeFleet(false) // completions are scripted, not at submit
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	futs := make([]*Future, jobs)
	for i := range futs {
		if futs[i], err = cp.Submit(fmt.Sprintf("t%d", i%4), job(fmt.Sprintf("/g%d", i%16))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= 8 {
		t.Fatalf("%d queued jobs grew the goroutine count by %d", jobs, grew)
	}
	if n := ff.fake(0, 0).Load() + ff.fake(1, 0).Load(); n != jobs {
		t.Fatalf("hosts hold %d jobs, want %d", n, jobs)
	}

	// Complete settles on the calling goroutine, so every job has been
	// delivered by the time it returns. A second delivery would panic on
	// the closed Done.
	ff.fake(0, 0).Complete(-1)
	ff.fake(1, 0).Complete(-1)
	for i, f := range futs {
		select {
		case <-f.Done():
			if res := f.Wait(); res.Err != nil {
				t.Fatalf("job %d failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("job %d not delivered after its host completed it", i)
		}
	}
	cp.Drain()
	if snap := cp.Snapshot(); snap.Admitted != jobs || snap.Succeeded != jobs || snap.Failed != 0 {
		t.Fatalf("fleet accounts admitted=%d succeeded=%d failed=%d, want %d/%d/0",
			snap.Admitted, snap.Succeeded, snap.Failed, jobs, jobs)
	}
}

// TestFleetRehomeOffTheResolvingGoroutine hands jobs back from a cordoned
// host while the only other host's queue is full. The remediator resolves
// the handed-off Futures inside Checkpoint; if it also had to find the jobs
// a new host, it would wait there for capacity that only arrives after
// remediation ends. Re-homes run on goroutines of their own, so the
// remediator finishes, the jobs wait, and each is delivered exactly once
// when host 1 frees capacity.
func TestFleetRehomeOffTheResolvingGoroutine(t *testing.T) {
	const handed, depth = 8, 4
	ff := newFakeFleet(false)
	cp, err := New(Config{StallProbes: -1}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	// Host 0's replacement fails, so host 1 is the only place left.
	ff.mu.Lock()
	ff.failNext[0] = errors.New("no spare machine")
	ff.mu.Unlock()
	sick, full := ff.fake(0, 0), ff.fake(1, 0)
	sick.SetResident("/a", 1)
	full.SetResident("/b", 1)

	var resident, moved []*Future
	for i := 0; i < depth; i++ {
		f, err := cp.Submit("t", job("/b"))
		if err != nil {
			t.Fatal(err)
		}
		resident = append(resident, f)
	}
	full.SetQueueDepth(depth)
	for i := 0; i < handed; i++ {
		f, err := cp.Submit("t", job("/a"))
		if err != nil {
			t.Fatal(err)
		}
		moved = append(moved, f)
	}
	if sick.Load() != handed || full.Load() != depth {
		t.Fatalf("placement: host 0 holds %d, host 1 holds %d; want %d and %d",
			sick.Load(), full.Load(), handed, depth)
	}

	cp.Cordon(0, "test")
	remediated := make(chan struct{})
	go func() {
		cp.AwaitRemediation()
		close(remediated)
	}()
	select {
	case <-remediated:
	case <-time.After(10 * time.Second):
		t.Fatal("remediation did not finish: the remediator is waiting for capacity on behalf of handed-off jobs")
	}
	if snap := cp.Snapshot(); snap.Hosts[0].State != HostDead {
		t.Fatalf("host 0 is %v, want dead", snap.Hosts[0].State)
	}
	if a, r, h := sick.Counts(); a != handed || r != 0 || h != handed {
		t.Fatalf("host 0 admitted %d, ran %d, handed off %d; want %d, 0, %d", a, r, h, handed, handed)
	}
	waitFor(t, "every handed-off job to look for a host", func() bool {
		return cp.Snapshot().Rebalanced == handed
	})
	for i, f := range moved {
		select {
		case <-f.Done():
			t.Fatalf("re-homed job %d delivered before host 1 had room: %+v", i, f.Wait())
		default:
		}
	}

	// Host 1 frees capacity a batch at a time until every job is through.
	waitFor(t, "every job delivered", func() bool {
		full.Complete(-1)
		return cp.Snapshot().Delivered() == depth+handed
	})
	for i, f := range append(resident, moved...) {
		rehomes := 0
		if i >= depth {
			rehomes = 1
		}
		res := f.Wait()
		if res.Err != nil || res.Host != 1 || res.Rehomes != rehomes {
			t.Fatalf("job %d: host %d, %d rehomes, err %v; want host 1, %d rehomes, no error",
				i, res.Host, res.Rehomes, res.Err, rehomes)
		}
	}

	drained := make(chan struct{})
	go func() {
		cp.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
}

// TestFleetFutureReadsAnyNumberOfTimes waits for a fleet job twice and then
// checks Done: once the job is delivered, no read of its Future blocks.
func TestFleetFutureReadsAnyNumberOfTimes(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Drain()
	fut, err := cp.Submit("t", job("/twice"))
	if err != nil {
		t.Fatal(err)
	}
	ff.fake(0, 0).Complete(-1)
	ff.fake(1, 0).Complete(-1)
	reads := make(chan Result, 2)
	go func() {
		reads <- fut.Wait()
		reads <- fut.Wait()
		<-fut.Done()
		close(reads)
	}()
	n := 0
	for deadline := time.After(10 * time.Second); n < 3; n++ {
		select {
		case res, ok := <-reads:
			if ok && (res.Err != nil || res.Host < 0) {
				t.Fatalf("read %d: host %d, err %v", n, res.Host, res.Err)
			}
		case <-deadline:
			t.Fatalf("read %d of a delivered job blocked (two Waits, then Done)", n)
		}
	}
}
