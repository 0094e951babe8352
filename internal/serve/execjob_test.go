package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"gpufs"
	"gpufs/internal/simtime/simtest"
)

// searchRig is one GPU serving JobSearch over a few cache-resident 64 KiB
// files: the steady state of the allocation guardrail and the benchmark.
func searchRig(tb testing.TB) (*Server, []string) {
	tb.Helper()
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 1
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = fmt.Sprintf("/corpus/s%d.txt", i)
		text := bytes.Repeat([]byte("lorem ipsum dolor sit amet "), 64<<10/27+1)[:64<<10]
		if err := sys.WriteHostFile(paths[i], text); err != nil {
			tb.Fatalf("WriteHostFile: %v", err)
		}
	}
	srv := New(sys, Config{})
	tb.Cleanup(func() { srv.Drain() })
	// Fault the files in, fill the buffer pool, and run enough batches that
	// the process's pad pool holds the scratchpads of the widest launch the
	// measured jobs make: a launch makes the pads the pool lacks at its start
	// (four jobs a file left some to the measured jobs on a two-core host).
	runSearchJobs(tb, srv, paths, 16*len(paths))
	return srv, paths
}

// runSearchJobs runs n jobs closed-loop, eight in flight, and checks each.
func runSearchJobs(tb testing.TB, srv *Server, paths []string, n int) {
	tb.Helper()
	const window = 8
	futs := make([]*Future, 0, window)
	for i := 0; i < n; i += len(futs) {
		futs = futs[:0]
		for k := 0; k < window && i+k < n; k++ {
			fut, err := srv.Submit("t", Job{Kind: JobSearch, Path: paths[(i+k)%len(paths)], Word: "dolor"})
			if err != nil {
				tb.Fatalf("Submit: %v", err)
			}
			futs = append(futs, fut)
		}
		for _, fut := range futs {
			if res := fut.Wait(); res.Err != nil || res.Count != 64<<10/27 {
				tb.Fatalf("job %d: count %d err %v", res.ID, res.Count, res.Err)
			}
		}
	}
}

// TestExecJobAllocatesNoFileBuffer is the guardrail of ISSUE 17's job-buffer
// gain: at steady state a job over a 64 KiB file allocates well under its
// file's size — its future, its result, its share of the launch — because it
// reads into a recycled buffer, and its block takes a scratchpad its launch
// reserved from the process's pad pool.
func TestExecJobAllocatesNoFileBuffer(t *testing.T) {
	srv, paths := searchRig(t)
	const jobs = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSearchJobs(t, srv, paths, jobs)
	runtime.ReadMemStats(&after)
	bound := 2<<10 + simtest.PoolSlack(64<<10)
	if perJob := int64(after.TotalAlloc-before.TotalAlloc) / jobs; perJob >= bound {
		t.Fatalf("steady-state JobSearch over a 64 KiB file allocates %d B per job, want < %d", perJob, bound)
	}
}

// TestExecJobSeesOnlyWhatItRead: the job buffer is recycled across jobs and
// tenants, so a job over a file shorter than the buffer it draws must count
// and return bytes of its own read only. Every round hands the pool buffers
// full of the needle; a round counts once a job provably drew one (the pool
// is free to drop a Put, and does under the race detector).
func TestExecJobSeesOnlyWhatItRead(t *testing.T) {
	sys, paths := testSystem(t, 1, 1)
	short, err := sys.ReadHostFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	const needle = "zqjx"
	if bytes.Contains(short, []byte(needle)) {
		t.Fatalf("corpus contains %q", needle)
	}
	poison := bytes.Repeat([]byte(needle), 4*len(short)/len(needle))
	srv := New(sys, Config{MaxOutputBytes: int64(len(poison))})
	defer srv.Drain()

	drew := false
	for round := 0; round < 50 && !drew; round++ {
		// Empty the pool first (one collection moves what it holds to the
		// victim cache, a second drops it): a serve worker draws the buffers
		// its own P kept from earlier jobs ahead of any other P's, so with
		// them left in place no job might draw a poisoned one.
		runtime.GC()
		runtime.GC()
		var bufs [4]*[]byte
		for i := range bufs {
			b := bytes.Clone(poison)
			bufs[i] = &b
			jobBufs.Put(&b)
		}
		for _, kind := range []JobKind{JobSearch, JobGrep, JobTransform} {
			spec := Job{Kind: kind, Path: paths[0], Word: needle}
			res := mustSubmit(t, srv, "victim", spec).Wait()
			checkResult(t, res, oracle(t, sys, spec, srv.Config().MaxOutputBytes))
		}
		for _, bp := range bufs {
			drew = drew || bytes.Equal((*bp)[:len(short)], short)
		}
	}
	if !drew {
		t.Fatal("no job drew a poisoned buffer in 50 rounds: the test exercised nothing")
	}
}

func BenchmarkExecJob(b *testing.B) {
	srv, paths := searchRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	runSearchJobs(b, srv, paths, b.N)
}
