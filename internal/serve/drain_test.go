package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSubmitDrainRace pins the documented Submit/Drain contract: a Submit
// racing Drain either wins admission — and its Future is serviced before
// Drain returns — or loses with ErrDraining and no Future. A Future is
// NEVER abandoned. Run under -race this also certifies the drain path
// data-race-clean.
func TestSubmitDrainRace(t *testing.T) {
	const (
		rounds     = 25
		submitters = 8
	)
	for round := 0; round < rounds; round++ {
		sys, paths := testSystem(t, 2, 2)
		srv := New(sys, Config{QueueDepth: 64, MaxBatch: 8})

		type outcome struct {
			fut *Future
			err error
		}
		outcomes := make(chan outcome, submitters*8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					fut, err := srv.Submit(fmt.Sprintf("t%d", s),
						Job{Kind: JobGrep, Path: paths[i%len(paths)], Word: "the"})
					outcomes <- outcome{fut, err}
					if err != nil {
						return // draining: every later submit loses too
					}
				}
			}(s)
		}
		close(start)
		runtime.Gosched()
		srv.Drain()
		wg.Wait()
		close(outcomes)

		admitted, rejected := 0, 0
		for o := range outcomes {
			switch {
			case o.err == nil:
				admitted++
				// Drain returned, so a won admission must already be
				// serviced: the Future resolves without further help.
				select {
				case <-o.fut.Done():
					if res := o.fut.Wait(); res.Err != nil {
						t.Fatalf("round %d: admitted job failed: %v", round, res.Err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: admitted Future never resolved — lost Future", round)
				}
			case errors.Is(o.err, ErrDraining):
				rejected++
				if o.fut != nil {
					t.Fatalf("round %d: ErrDraining came with a non-nil Future", round)
				}
			default:
				t.Fatalf("round %d: unexpected submit error: %v", round, o.err)
			}
		}
		st := srv.Stats()
		if got := st.Completed() + st.Failed(); got != int64(admitted) {
			t.Fatalf("round %d: stats account for %d jobs, %d admitted", round, got, admitted)
		}
		_ = rejected // zero is legal: the race has no guaranteed loser
	}
}

// TestDrainForHandoffFlushesQueued checks the handoff contract: after
// DrainForHandoff returns, every admitted job's Future has resolved —
// either normally (it was in flight) or with ErrHandedOff (it was queued
// and never executed) — and the handed-off count matches exactly. The
// server's stats must classify handoffs separately from failures.
func TestDrainForHandoffFlushesQueued(t *testing.T) {
	sys, paths := testSystem(t, 2, 4)
	srv := New(sys, Config{QueueDepth: 256, MaxBatch: 4})

	var futs []*Future
	for i := 0; i < 96; i++ {
		fut, err := srv.Submit("tenant", Job{Kind: JobSearch, Path: paths[i%len(paths)], Word: "a"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	// Let the workers pick up some batches so both populations — completed
	// in flight and handed off from the queue — are represented.
	time.Sleep(2 * time.Millisecond)
	handed := srv.DrainForHandoff()

	var completed, handedOff int
	for i, fut := range futs {
		select {
		case <-fut.Done():
			switch res := fut.Wait(); {
			case res.Err == nil:
				completed++
			case errors.Is(res.Err, ErrHandedOff):
				handedOff++
				if res.Attempts != 0 {
					t.Fatalf("job %d handed off after %d attempts: handoff must mean never-executed", i, res.Attempts)
				}
			default:
				t.Fatalf("job %d: unexpected error %v", i, res.Err)
			}
		default:
			t.Fatalf("job %d: Future unresolved after DrainForHandoff returned", i)
		}
	}
	if handedOff != handed {
		t.Fatalf("DrainForHandoff reported %d, futures show %d", handed, handedOff)
	}
	if completed+handedOff != len(futs) {
		t.Fatalf("%d completed + %d handed off != %d admitted", completed, handedOff, len(futs))
	}
	st := srv.Stats()
	if st.HandedOff() != int64(handedOff) {
		t.Fatalf("stats report %d handed off, futures show %d", st.HandedOff(), handedOff)
	}
	if st.Failed() != 0 {
		t.Fatalf("handoffs leaked into failure stats: %d failed", st.Failed())
	}
	if _, err := srv.Submit("tenant", Job{Kind: JobGrep, Path: paths[0], Word: "x"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after DrainForHandoff: err=%v, want ErrDraining", err)
	}
	t.Logf("drain-for-handoff: %d completed in flight, %d handed off", completed, handedOff)
}

// TestHandoffResubmitByteIdentical is the determinism half of the drain
// story: a run disturbed by DrainForHandoff — with the handed-off tail
// re-submitted to a second server over the same corpus — must produce
// byte-identical payloads (counts and transform output) to an undisturbed
// run. The kernels are deterministic functions of the file contents, so
// re-routing must be invisible in the answers. Race-clean under -race.
func TestHandoffResubmitByteIdentical(t *testing.T) {
	mkJobs := func(paths []string) []Job {
		var jobs []Job
		for i := 0; i < 64; i++ {
			switch i % 3 {
			case 0:
				jobs = append(jobs, Job{Kind: JobGrep, Path: paths[i%len(paths)], Word: "the"})
			case 1:
				jobs = append(jobs, Job{Kind: JobSearch, Path: paths[i%len(paths)], Word: "an"})
			default:
				jobs = append(jobs, Job{Kind: JobTransform, Path: paths[i%len(paths)], MaxOutput: 512})
			}
		}
		return jobs
	}
	payload := func(res Result) string {
		return fmt.Sprintf("%d|%x", res.Count, res.Output)
	}

	// Reference: one server, no disturbance.
	refSys, refPaths := testSystem(t, 2, 4)
	refSrv := New(refSys, Config{QueueDepth: 256, MaxBatch: 4})
	jobs := mkJobs(refPaths)
	want := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		fut, err := refSrv.Submit("tenant", j)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, fut *Future) {
			defer wg.Done()
			res := fut.Wait()
			if res.Err != nil {
				t.Errorf("reference job %d failed: %v", i, res.Err)
			}
			want[i] = payload(res)
		}(i, fut)
	}
	wg.Wait()
	refSrv.Drain()

	// Disturbed: same corpus on two fresh servers; drain the first
	// mid-stream and re-submit its handed-off tail to the second.
	sysA, pathsA := testSystem(t, 2, 4)
	srvA := New(sysA, Config{QueueDepth: 256, MaxBatch: 4})
	jobsA := mkJobs(pathsA)
	futsA := make([]*Future, len(jobsA))
	for i, j := range jobsA {
		fut, err := srvA.Submit("tenant", j)
		if err != nil {
			t.Fatalf("disturbed submit %d: %v", i, err)
		}
		futsA[i] = fut
	}
	srvA.DrainForHandoff()

	sysB, pathsB := testSystem(t, 2, 4)
	srvB := New(sysB, Config{QueueDepth: 256, MaxBatch: 4})
	if len(pathsB) != len(pathsA) {
		t.Fatal("corpus mismatch between servers")
	}
	got := make([]string, len(jobsA))
	var handed int
	for i, fut := range futsA {
		switch res := fut.Wait(); {
		case res.Err == nil:
			got[i] = payload(res)
		case errors.Is(res.Err, ErrHandedOff):
			handed++
			fut2, err := srvB.Submit("tenant", jobsA[i])
			if err != nil {
				t.Fatalf("resubmit %d: %v", i, err)
			}
			wg.Add(1)
			go func(i int, fut *Future) {
				defer wg.Done()
				res := fut.Wait()
				if res.Err != nil {
					t.Errorf("resubmitted job %d failed: %v", i, res.Err)
				}
				got[i] = payload(res)
			}(i, fut2)
		default:
			t.Fatalf("disturbed job %d: unexpected error %v", i, res.Err)
		}
	}
	wg.Wait()
	srvB.Drain()

	if handed == 0 {
		t.Log("note: no jobs were queued at drain time; disturbance was a no-op this run")
	}
	for i := range jobs {
		if got[i] != want[i] {
			t.Fatalf("job %d (%s %s %q): disturbed payload %q != undisturbed %q",
				i, jobs[i].Kind, jobs[i].Path, jobs[i].Word, got[i], want[i])
		}
	}
	t.Logf("byte-identical across handoff: %d jobs, %d re-routed", len(jobs), handed)
}
