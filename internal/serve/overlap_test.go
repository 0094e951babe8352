package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
)

// TestBatchNeverStartsBeforeItsJobsArrive: a launch is issued when the last
// of its jobs has arrived, however far ahead of the server's clock a driver
// submitted it — no job has a negative queue wait — and every kernel costs
// at least its launch.
func TestBatchNeverStartsBeforeItsJobsArrive(t *testing.T) {
	sys, paths := testSystem(t, 2, 4)
	srv := New(sys, Config{MaxBatch: 4})
	defer srv.Drain()
	gap := sys.Config().KernelLaunchOverhead

	var futs []*Future
	for i := 0; i < 48; i++ {
		spec := Job{Kind: JobSearch, Path: paths[i%len(paths)], Word: "a"}
		tenant := fmt.Sprintf("t%d", i%3)
		var (
			fut *Future
			err error
		)
		if i%3 == 0 {
			fut, err = srv.Submit(tenant, spec)
		} else {
			// Ahead of Now(), and not in arrival order either.
			ahead := simtime.Duration(1+(i*7)%12) * 100 * simtime.Microsecond
			fut, err = srv.SubmitAt(tenant, spec, srv.Now().Add(ahead))
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	for i, fut := range futs {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Started < res.Enqueued {
			t.Errorf("job %d launched at %v, before it arrived at %v", i, res.Started, res.Enqueued)
		}
		if res.Done < res.Started.Add(gap) {
			t.Errorf("job %d launched at %v and done at %v: less than a launch overhead", i, res.Started, res.Done)
		}
	}
}

// TestRetryWaitsForItsKernelToEnd: the server learns that a job failed when
// the job's kernel ends, so the retry is a launch issued after that — not
// one launch overhead after the attempt it retries, inside the kernel that
// has yet to report the failure.
func TestRetryWaitsForItsKernelToEnd(t *testing.T) {
	sys, paths := testSystem(t, 1, 4)
	inj := sys.EnableFaults(gpufs.FaultConfig{Seed: 1, HostReadEIOProb: 1})
	inj.SetEnabled(false)
	srv := New(sys, Config{MaxBatch: 4})
	defer srv.Drain()
	gap := sys.Config().KernelLaunchOverhead

	// Three files warm; the fourth's page still has to come from the host,
	// and from now on every host read fails.
	warm, cold := paths[:3], paths[3]
	for _, p := range warm {
		if res := mustSubmit(t, srv, "w", Job{Kind: JobSearch, Path: p, Word: "a"}).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	inj.SetEnabled(true)

	futs := enqueueTogether(t, srv, "t", paths, srv.Now())

	var firstEnd simtime.Time
	for _, fut := range futs[:3] {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("warm job %s: %v", res.Job.Path, res.Err)
		}
		firstEnd = res.Done
	}
	res := futs[3].Wait()
	if !errors.Is(res.Err, hostfs.ErrIO) || res.Attempts != srv.cfg.MaxAttempts {
		t.Fatalf("job on %s: err %v after %d attempts, want EIO after %d", cold, res.Err, res.Attempts, srv.cfg.MaxAttempts)
	}
	// Its third attempt follows two kernels that each had to end first.
	if res.Started < firstEnd.Add(gap) {
		t.Fatalf("last attempt launched at %v; the first attempt's kernel ended at %v and the second's no sooner than %v",
			res.Started, firstEnd, firstEnd.Add(gap))
	}
}

// TestLaunchQueueTraceRow: the serving layer's events render on a named
// per-GPU "launch-queue" thread of their own, and no two spans there
// partially overlap — Chrome's viewer nests spans per thread and cannot draw
// that — even when the kernels they launched do.
func TestLaunchQueueTraceRow(t *testing.T) {
	sys, paths := testSystem(t, 1, 4)
	tr := sys.EnableTracing(1 << 12)
	srv := New(sys, Config{MaxBatch: 4})

	// Three launches' worth of jobs in one critical section, all arriving
	// at 0: the launches are issued one overhead apart.
	twelve := append(append(append([]string(nil), paths...), paths...), paths...)
	kernels := map[int64][2]simtime.Time{}
	for _, fut := range enqueueTogether(t, srv, "t", twelve, 0) {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		kernels[res.Batch] = [2]simtime.Time{res.Started, res.Done}
	}
	srv.Drain()
	if len(kernels) != 3 {
		t.Fatalf("%d launches, want 3", len(kernels))
	}
	for a, ka := range kernels {
		for b, kb := range kernels {
			if a < b && (ka[1] <= kb[0] || kb[1] <= ka[0]) {
				t.Fatalf("kernels %v and %v do not overlap: the run does not exercise the row", ka, kb)
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type row struct{ pid, tid int }
	type span struct{ from, to float64 }
	var (
		queue      = map[row]bool{} // rows that carry serve events
		named      = map[row]string{}
		spans      = map[row][]span{}
		dispatches int
	)
	for _, e := range doc.TraceEvents {
		r := row{e.PID, e.TID}
		switch e.Name {
		case "thread_name":
			named[r] = e.Args["name"].(string)
		case "enqueue", "batch", "dispatch":
			queue[r] = true
		}
		if e.Name == "dispatch" {
			dispatches++
		}
		if e.Ph == "X" {
			spans[r] = append(spans[r], span{e.TS, e.TS + e.Dur})
		}
	}
	if dispatches != 3 || len(queue) != 1 {
		t.Fatalf("%d dispatch spans on %d rows, want 3 on 1", dispatches, len(queue))
	}
	for r := range queue {
		if named[r] != "launch-queue" {
			t.Errorf("serve events on row %+v named %q, want launch-queue", r, named[r])
		}
		if len(spans[r]) != dispatches {
			t.Errorf("row %+v carries %d spans for %d dispatches: it is shared with a threadblock", r, len(spans[r]), dispatches)
		}
		for i, a := range spans[r] {
			for _, b := range spans[r][i+1:] {
				disjoint := a.to <= b.from || b.to <= a.from
				nested := (a.from <= b.from && b.to <= a.to) || (b.from <= a.from && a.to <= b.to)
				if !disjoint && !nested {
					t.Errorf("spans %+v and %+v partially overlap on row %+v", a, b, r)
				}
			}
		}
	}
}
