package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestHandoffGateFreezesDispatch is the regression pin for the latent
// drain double-delivery race (ISSUE 10 satellite): once the handoff flag
// is up, takeLocked must not launch ANOTHER batch — a job popped by a
// worker after the freeze but before the flush would execute AND be
// handed back, appearing twice. With the gate, everything admitted after
// the freeze is flushed with ErrHandedOff at Attempts == 0: it appears
// exactly once in the handoff, as never-executed.
func TestHandoffGateFreezesDispatch(t *testing.T) {
	sys, paths := testSystem(t, 2, 2)
	srv := New(sys, Config{QueueDepth: 256, MaxBatch: 4})

	// Freeze dispatch WITHOUT stopping admission — the window Checkpoint
	// opens while the snapshot walk overlaps in-flight work.
	srv.mu.Lock()
	srv.handoff = true
	srv.mu.Unlock()

	const n = 32
	var futs []*Future
	for i := 0; i < n; i++ {
		fut, err := srv.Submit("tenant", Job{Kind: JobGrep, Path: paths[i%len(paths)], Word: "the"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	// Give the workers every chance to (wrongly) take a batch.
	time.Sleep(2 * time.Millisecond)
	runtime.Gosched()
	st := srv.Stats()
	if st.Inflight != 0 || st.Completed() != 0 {
		t.Fatalf("dispatch not frozen under handoff: %d in flight, %d completed", st.Inflight, st.Completed())
	}
	if st.Queued != n {
		t.Fatalf("queue holds %d jobs, want all %d", st.Queued, n)
	}

	handed := srv.DrainForHandoff()
	if handed != n {
		t.Fatalf("DrainForHandoff flushed %d jobs, want %d", handed, n)
	}
	for i, fut := range futs {
		select {
		case <-fut.Done():
			res := fut.Wait()
			if !errors.Is(res.Err, ErrHandedOff) {
				t.Fatalf("job %d resolved %v, want ErrHandedOff", i, res.Err)
			}
			if res.Attempts != 0 {
				t.Fatalf("job %d handed off after %d attempts: it was executed AND handed back (double delivery)", i, res.Attempts)
			}
		default:
			t.Fatalf("job %d unresolved after DrainForHandoff", i)
		}
	}
}

// TestCheckpointExactlyOnce races Checkpoint against live submitters and
// accounts for every admitted job exactly once: completed in flight,
// handed off in the image's Queued manifest, or rejected with ErrDraining
// and no Future. Run under -race this certifies the freeze protocol.
func TestCheckpointExactlyOnce(t *testing.T) {
	const (
		rounds     = 10
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
						return
					}
				}
			}(s)
		}
		close(start)
		runtime.Gosched()
		img, err := srv.Checkpoint()
		if err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		wg.Wait()
		close(outcomes)

		var completed, handed, rejected int
		for o := range outcomes {
			switch {
			case o.err == nil:
				select {
				case <-o.fut.Done():
					switch res := o.fut.Wait(); {
					case res.Err == nil:
						completed++
					case errors.Is(res.Err, ErrHandedOff):
						handed++
						if res.Attempts != 0 {
							t.Fatalf("round %d: handed-off job ran %d attempts (double delivery)", round, res.Attempts)
						}
					default:
						t.Fatalf("round %d: admitted job failed: %v", round, res.Err)
					}
				default:
					t.Fatalf("round %d: admitted Future unresolved after Checkpoint returned", round)
				}
			case errors.Is(o.err, ErrDraining):
				rejected++
			default:
				t.Fatalf("round %d: unexpected submit error: %v", round, o.err)
			}
		}
		if len(img.Queued) != handed {
			t.Fatalf("round %d: image manifests %d queued jobs, futures show %d handed off",
				round, len(img.Queued), handed)
		}
		_ = completed
		_ = rejected
	}
}

// TestCheckpointRestoreRoundTrip moves a live server's state onto a fresh
// host: the image carries the cache (the replacement answers warm), the
// queued-job manifest re-submits cleanly, and the restored server's
// virtual clock accounts for the restore work.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	sysA, pathsA := testSystem(t, 2, 4)
	srvA := New(sysA, Config{QueueDepth: 256, MaxBatch: 4})

	var futs []*Future
	for i := 0; i < 64; i++ {
		fut, err := srvA.Submit("tenant", Job{Kind: JobGrep, Path: pathsA[i%len(pathsA)], Word: "the"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	// Checkpoint once a job has run: its pages are resident, so the image
	// must carry some, however slowly the batches dispatch.
	if res := futs[0].Wait(); res.Err != nil {
		t.Fatalf("job 0: %v", res.Err)
	}
	img, err := srvA.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i, fut := range futs[1:] {
		select {
		case <-fut.Done():
		default:
			t.Fatalf("job %d unresolved after Checkpoint", i+1)
		}
	}
	if len(img.GPUs) != sysA.NumGPUs() {
		t.Fatalf("image carries %d GPU states, want %d", len(img.GPUs), sysA.NumGPUs())
	}
	if img.CaptureEnd < img.CaptureStart {
		t.Fatalf("capture window inverted: [%d, %d]", img.CaptureStart, img.CaptureEnd)
	}
	// The workload read real pages; something must have been captured.
	var pages int64
	for _, g := range img.GPUs {
		for _, f := range g.Files {
			pages += int64(len(f.Dirty) + len(f.Clean))
		}
	}
	if pages == 0 {
		t.Fatal("image captured zero pages from a warmed server")
	}

	// A second Checkpoint (or drain) on the now-drained server must not
	// find new work: the host's one drain call is spent.
	if _, err := srvA.Checkpoint(); !errors.Is(err, ErrDraining) {
		t.Fatalf("second checkpoint: err=%v, want ErrDraining", err)
	}
	if n := srvA.DrainForHandoff(); n != 0 {
		t.Fatalf("DrainForHandoff after Checkpoint flushed %d jobs, want 0", n)
	}

	sysB, pathsB := testSystem(t, 2, 4)
	srvB := New(sysB, Config{QueueDepth: 256, MaxBatch: 4})
	if err := srvB.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if srvB.Now() == 0 {
		t.Fatal("restore charged no virtual time")
	}
	var resident int64
	for _, p := range pathsB {
		resident += srvB.ResidentPages(p)
	}
	if resident == 0 {
		t.Fatal("restored server is cold: no resident corpus pages")
	}

	// Restore is only legal onto a factory-fresh host.
	if err := srvB.Restore(img); !errors.Is(err, ErrNotRestorable) {
		t.Fatalf("second restore: err=%v, want ErrNotRestorable", err)
	}

	// Replay the manifest: the handed-off tail completes on the new host.
	for i, q := range img.Queued {
		fut, err := srvB.Submit(q.Tenant, Job{Kind: JobKind(q.Kind), Path: q.Path, Word: q.Word})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if res := fut.Wait(); res.Err != nil {
			t.Fatalf("replayed job %d failed on the restored host: %v", i, res.Err)
		}
	}
	srvB.Drain()
}
