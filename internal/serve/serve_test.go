package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gpufs"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
	"gpufs/internal/workloads"
)

const testScale = 1.0 / 256

// testSystem builds a small machine with the given GPU count and a seeded
// word corpus, returning the system and the corpus paths.
func testSystem(t *testing.T, numGPUs, numFiles int) (*gpufs.System, []string) {
	t.Helper()
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = numGPUs
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	dict := workloads.MakeDictionary(200)
	paths := make([]string, numFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/corpus/f%02d.txt", i)
		text := workloads.MakeText(8<<10, workloads.TextSpec{
			Dict: dict, DictFraction: 0.7, Seed: int64(1000 + i),
		})
		if err := sys.WriteHostFile(paths[i], text); err != nil {
			t.Fatalf("WriteHostFile: %v", err)
		}
	}
	return sys, paths
}

// oracle computes the expected result of a job directly on the host file.
func oracle(t *testing.T, sys *gpufs.System, spec Job, maxOut int64) Result {
	t.Helper()
	data, err := sys.ReadHostFile(spec.Path)
	if err != nil {
		t.Fatalf("oracle read %s: %v", spec.Path, err)
	}
	var want Result
	switch spec.Kind {
	case JobGrep:
		want.Count = int64(workloads.CountWord(data, spec.Word))
	case JobSearch:
		want.Count = int64(bytes.Count(data, []byte(spec.Word)))
	case JobTransform:
		limit := spec.MaxOutput
		if limit <= 0 || limit > maxOut {
			limit = maxOut
		}
		if limit > int64(len(data)) {
			limit = int64(len(data))
		}
		want.Output = bytes.ToUpper(data[:limit])
	}
	return want
}

func checkResult(t *testing.T, got Result, want Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("job %d (%s %s %q): unexpected error: %v",
			got.ID, got.Job.Kind, got.Job.Path, got.Job.Word, got.Err)
	}
	if got.Count != want.Count {
		t.Fatalf("job %d (%s %s %q): count %d, want %d",
			got.ID, got.Job.Kind, got.Job.Path, got.Job.Word, got.Count, want.Count)
	}
	if !bytes.Equal(got.Output, want.Output) {
		t.Fatalf("job %d: output mismatch (%d bytes, want %d)",
			got.ID, len(got.Output), len(want.Output))
	}
}

func TestServeCorrectnessAllKinds(t *testing.T) {
	sys, paths := testSystem(t, 2, 4)
	srv := New(sys, Config{})
	defer srv.Drain()

	specs := []Job{
		{Kind: JobGrep, Path: paths[0], Word: workloads.MakeWord(3)},
		{Kind: JobGrep, Path: paths[1], Word: workloads.MakeWord(7)},
		{Kind: JobSearch, Path: paths[2], Word: "aa"},
		{Kind: JobSearch, Path: paths[0], Word: "the"},
		{Kind: JobTransform, Path: paths[3]},
		{Kind: JobTransform, Path: paths[1], MaxOutput: 100},
	}
	futs := make([]*Future, len(specs))
	for i, spec := range specs {
		fut, err := srv.Submit(fmt.Sprintf("tenant-%d", i%3), spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		futs[i] = fut
	}
	seen := make(map[uint64]bool)
	for i, fut := range futs {
		res := fut.Wait()
		checkResult(t, res, oracle(t, sys, specs[i], srv.Config().MaxOutputBytes))
		if seen[res.ID] {
			t.Fatalf("duplicate job id %d", res.ID)
		}
		seen[res.ID] = true
		if res.Done < res.Started || res.Started < res.Enqueued {
			t.Fatalf("job %d: time stamps out of order: %v %v %v",
				res.ID, res.Enqueued, res.Started, res.Done)
		}
		if res.Latency() <= 0 {
			t.Fatalf("job %d: non-positive latency %v", res.ID, res.Latency())
		}
	}
}

func TestServeBadJobRejected(t *testing.T) {
	sys, paths := testSystem(t, 1, 1)
	srv := New(sys, Config{})
	defer srv.Drain()

	cases := []Job{
		{Kind: JobGrep, Path: "", Word: "x"},
		{Kind: JobGrep, Path: paths[0]},
		{Kind: JobSearch, Path: paths[0]},
		{Kind: JobKind(42), Path: paths[0]},
	}
	for _, spec := range cases {
		if _, err := srv.Submit("t", spec); !errors.Is(err, ErrBadJob) {
			t.Fatalf("Submit(%+v) error = %v, want ErrBadJob", spec, err)
		}
	}
}

func TestServeAdmissionControl(t *testing.T) {
	sys, paths := testSystem(t, 1, 1)
	srv := New(sys, Config{QueueDepth: 4})
	defer srv.Drain()

	// Fill the tenant's admission window by hand so the rejection is
	// deterministic regardless of worker scheduling.
	srv.mu.Lock()
	srv.tenants["full"] = &tenant{open: srv.cfg.QueueDepth}
	srv.mu.Unlock()

	_, err := srv.Submit("full", Job{Kind: JobSearch, Path: paths[0], Word: "a"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on full tenant = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an *OverloadError", err)
	}
	if oe.Tenant != "full" || oe.RetryAfter <= 0 {
		t.Fatalf("overload hint: %+v", oe)
	}

	// A different tenant is unaffected — admission is per tenant.
	fut, err := srv.Submit("other", Job{Kind: JobSearch, Path: paths[0], Word: "a"})
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if res := fut.Wait(); res.Err != nil {
		t.Fatalf("other tenant job failed: %v", res.Err)
	}

	st := srv.Stats()
	if st.Tenants["full"].Rejected != 1 {
		t.Fatalf("rejected count = %d, want 1", st.Tenants["full"].Rejected)
	}

	// Release the artificial slots so Drain's bookkeeping stays sane.
	srv.mu.Lock()
	srv.tenants["full"].open = 0
	srv.mu.Unlock()
}

func TestServeQueueFairness(t *testing.T) {
	q := newGPUQueue()
	for i := 0; i < 6; i++ {
		q.push(&job{id: uint64(i), tenant: "a"})
	}
	q.push(&job{id: 100, tenant: "b"})
	q.push(&job{id: 200, tenant: "c"})

	got := q.pop(nil, 4, 0)
	if len(got) != 4 || q.size != 4 {
		t.Fatalf("pop(4) returned %d jobs, size now %d", len(got), q.size)
	}
	// Round-robin must interleave all three tenants in the first round.
	tenants := map[string]bool{}
	for _, j := range got[:3] {
		tenants[j.tenant] = true
	}
	if len(tenants) != 3 {
		t.Fatalf("first three pops cover %d tenants, want 3: %v", len(tenants), got)
	}
	rest := q.pop(nil, 10, 0)
	if len(rest) != 4 || q.size != 0 {
		t.Fatalf("drain returned %d jobs, size %d", len(rest), q.size)
	}
}

// TestServeQueuePopsOnlyReadyJobs: a launch at t takes only jobs ready by t,
// tenant-fair among them. Tenant b's only job has not arrived and does not
// block a or c; c's retry is ready only when the kernel that failed it
// ended, and stays queued until a launch at or after that. A tenant with
// nothing arrived keeps its place in the rotation.
func TestServeQueuePopsOnlyReadyJobs(t *testing.T) {
	q := newGPUQueue()
	for _, j := range []*job{
		{id: 1, tenant: "a"}, {id: 2, tenant: "b", ready: 100}, {id: 3, tenant: "c"},
		{id: 4, tenant: "a"}, {id: 5, tenant: "c", ready: 80}, {id: 6, tenant: "a"},
	} {
		q.push(j)
	}
	ids := func(js []*job) []uint64 {
		var out []uint64
		for _, j := range js {
			out = append(out, j.id)
		}
		return out
	}
	for _, step := range []struct {
		cursor, launch simtime.Time
		want           []uint64
	}{
		{10, 10, []uint64{1, 3, 4, 6}}, // a and c share the first round
		{20, 80, []uint64{5}},          // nothing ready by 20: leap to the retry
		{0, 100, []uint64{2}},
	} {
		batch, launch := q.take(nil, 16, step.cursor)
		got := ids(batch)
		if launch != step.launch || fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Fatalf("cursor %v: launch at %v with jobs %v; want %v with %v", step.cursor, launch, got, step.launch, step.want)
		}
	}
	if q.size != 0 || len(q.rr) != 0 || len(q.byTenant) != 0 {
		t.Fatalf("emptied queue holds size %d, rotation %v, %d tenants", q.size, q.rr, len(q.byTenant))
	}

	// b keeps its place ahead of a, which was popped from: once b's job has
	// arrived, the next round starts at b.
	for _, j := range []*job{{id: 7, tenant: "a"}, {id: 8, tenant: "b", ready: 50}, {id: 9, tenant: "c"}, {id: 10, tenant: "a"}} {
		q.push(j)
	}
	for _, step := range []struct {
		n    int
		t    simtime.Time
		want []uint64
	}{{1, 0, []uint64{7}}, {3, 50, []uint64{8, 9, 10}}} {
		if got := ids(q.pop(nil, step.n, step.t)); fmt.Sprint(got) != fmt.Sprint(step.want) {
			t.Fatalf("pop(%d) at %v: jobs %v, want %v", step.n, step.t, got, step.want)
		}
	}
}

func TestServePathHomeStable(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		for _, p := range []string{"/a", "/b", "/corpus/f00.txt"} {
			h := pathHome(p, n)
			if h < 0 || h >= n {
				t.Fatalf("pathHome(%q, %d) = %d out of range", p, n, h)
			}
			if h != pathHome(p, n) {
				t.Fatalf("pathHome(%q, %d) unstable", p, n)
			}
		}
	}
}

func TestServeAffinityRouting(t *testing.T) {
	sys, paths := testSystem(t, 2, 2)
	srv := New(sys, Config{Policy: PlaceAffinity})
	defer srv.Drain()

	// The first job over a cold file lands on its hash home and warms
	// that GPU's cache; every later job must follow it there.
	spec := Job{Kind: JobSearch, Path: paths[0], Word: "a"}
	first := mustSubmit(t, srv, "t", spec).Wait()
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if want := pathHome(paths[0], 2); first.GPU != want {
		t.Fatalf("cold job ran on gpu %d, want hash home %d", first.GPU, want)
	}
	for i := 0; i < 8; i++ {
		res := mustSubmit(t, srv, "t", spec).Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.GPU != first.GPU {
			t.Fatalf("warm job %d ran on gpu %d, want affine gpu %d", i, res.GPU, first.GPU)
		}
		if !res.AffinityHit {
			t.Fatalf("warm job %d missed the cache", i)
		}
	}
	if hits := srv.Stats().AffinityHitRate(); hits < 0.8 {
		t.Fatalf("affinity hit rate = %.2f, want ≥0.8", hits)
	}
}

func TestServeRoundRobinRouting(t *testing.T) {
	sys, paths := testSystem(t, 2, 1)
	srv := New(sys, Config{Policy: PlaceRoundRobin})
	defer srv.Drain()

	// Routing (not execution) is what the policy controls; check it
	// directly so work-stealing cannot blur the assertion.
	srv.mu.Lock()
	for i := 0; i < 6; i++ {
		if g := srv.routeLocked(&job{spec: Job{Kind: JobSearch, Path: paths[0], Word: "a"}}); g != i%2 {
			srv.mu.Unlock()
			t.Fatalf("round-robin route %d = gpu %d, want %d", i, g, i%2)
		}
	}
	srv.mu.Unlock()

	// End to end, both GPUs share the load.
	var futs []*Future
	for i := 0; i < 12; i++ {
		futs = append(futs, mustSubmit(t, srv, "t", Job{Kind: JobSearch, Path: paths[0], Word: "a"}))
	}
	for _, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := srv.Stats()
	if st.GPUs[0].Routed == 0 || st.GPUs[1].Routed == 0 {
		t.Fatalf("round-robin left a gpu unrouted: %+v", st.GPUs)
	}
}

func TestServeSaturationSpill(t *testing.T) {
	sys, paths := testSystem(t, 2, 1)
	srv := New(sys, Config{Policy: PlaceAffinity, MaxBatch: 1, QueueDepth: 64})
	defer srv.Drain()

	home := pathHome(paths[0], 2)
	other := 1 - home

	// With the home GPU artificially busy (4×MaxBatch jobs) and carrying
	// the whole host's load, routing must spill to the less-loaded GPU.
	srv.mu.Lock()
	srv.running[home] = make([]*job, 4)
	j := &job{spec: Job{Kind: JobSearch, Path: paths[0], Word: "a"}}
	got := srv.routeLocked(j)
	spilled := srv.gstats[home].Spilled
	srv.running[home] = nil
	srv.mu.Unlock()

	if got != other {
		t.Fatalf("saturated routing sent job to gpu %d, want spill to %d", got, other)
	}
	if spilled != 1 {
		t.Fatalf("spill counter = %d, want 1", spilled)
	}
}

func TestServeBatching(t *testing.T) {
	sys, paths := testSystem(t, 1, 2)
	srv := New(sys, Config{MaxBatch: 8})

	// Enqueue 16 jobs atomically so the single worker's first round sees
	// a full queue and must coalesce MaxBatch of them into one launch.
	var sixteen []string
	for i := 0; i < 16; i++ {
		sixteen = append(sixteen, paths[i%2])
	}
	for _, fut := range enqueueTogether(t, srv, "t", sixteen, srv.Now()) {
		if res := fut.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	srv.Drain()

	st := srv.Stats()
	if st.GPUs[0].MaxBatch < 2 {
		t.Fatalf("max batch = %d, want ≥2 (no coalescing happened)", st.GPUs[0].MaxBatch)
	}
	if st.GPUs[0].Batches >= st.GPUs[0].Launched {
		t.Fatalf("batches %d ≥ jobs %d: dispatch was one-launch-per-request",
			st.GPUs[0].Batches, st.GPUs[0].Launched)
	}
}

func TestServeDeadlineExceeded(t *testing.T) {
	sys, paths := testSystem(t, 1, 1)
	srv := New(sys, Config{})
	defer srv.Drain()

	// One virtual nanosecond is less than any kernel launch takes.
	fut := mustSubmit(t, srv, "t", Job{
		Kind: JobSearch, Path: paths[0], Word: "a", Deadline: 1,
	})
	res := fut.Wait()
	if !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("result error = %v, want ErrDeadlineExceeded", res.Err)
	}
}

func TestServeDrain(t *testing.T) {
	sys, paths := testSystem(t, 2, 2)
	srv := New(sys, Config{})

	var futs []*Future
	for i := 0; i < 24; i++ {
		futs = append(futs, mustSubmit(t, srv, fmt.Sprintf("t%d", i%4),
			Job{Kind: JobSearch, Path: paths[i%2], Word: "a"}))
	}
	srv.Drain()

	// Every job completed before Drain returned.
	for i, fut := range futs {
		select {
		case <-fut.Done():
			if res := fut.Wait(); res.Err != nil {
				t.Fatalf("job %d failed: %v", i, res.Err)
			}
		default:
			t.Fatalf("job %d not complete after Drain", i)
		}
	}
	if _, err := srv.Submit("t0", Job{Kind: JobSearch, Path: paths[0], Word: "a"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}
	st := srv.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("after drain: queued %d inflight %d", st.Queued, st.Inflight)
	}
	if st.Completed() != 24 {
		t.Fatalf("completed = %d, want 24", st.Completed())
	}
}

func TestServeRecoversFromDeviceFault(t *testing.T) {
	sys, paths := testSystem(t, 1, 4)
	srv := New(sys, Config{MaxBatch: 4})
	defer srv.Drain()
	gap := sys.Config().KernelLaunchOverhead

	// One kernel runs and returns, its jobs delivered.
	var delivered []Result
	firstFuts := enqueueTogether(t, srv, "first", paths, 0)
	for _, fut := range firstFuts {
		res := fut.Wait()
		checkResult(t, res, oracle(t, sys, res.Job, srv.Config().MaxOutputBytes))
		delivered = append(delivered, res)
	}
	firstEnd := delivered[0].Done
	if firstEnd <= simtime.Time(0).Add(2*gap) {
		t.Fatalf("first kernel ended at %v: too short for the next launch to overlap it", firstEnd)
	}

	// A kernel then crashes and latches its fault on the device (§3.3), and
	// the server's next batch — whose jobs arrived long ago — is issued one
	// launch overhead after its first: in virtual time both the crash and
	// the launch that finds it fall inside the kernel that already returned.
	if _, err := sys.GPU(0).Launch(0, 1, 1, func(c *gpufs.BlockCtx) error {
		return errors.New("boom")
	}); err == nil {
		t.Fatal("fault-latching launch did not fail")
	}
	faultedAt := simtime.Time(0).Add(gap)
	var batch int64 = -1
	for i, fut := range enqueueTogether(t, srv, "second", paths, 0) {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("job did not recover from device fault: %v", res.Err)
		}
		checkResult(t, res, oracle(t, sys, res.Job, srv.Config().MaxOutputBytes))
		if res.Attempts != 2 {
			t.Fatalf("attempts = %d, want 2 (first launch hit the latched fault)", res.Attempts)
		}
		if i == 0 {
			batch = res.Batch
		} else if res.Batch != batch {
			t.Fatalf("retried jobs ran in batches %d and %d: the faulted batch was not requeued whole", batch, res.Batch)
		}
		// The retry is a later launch than the one that restarted the
		// device — and still overlaps the first kernel.
		if res.Started < faultedAt.Add(gap) {
			t.Fatalf("retry launched at %v, before the faulted launch at %v had been issued", res.Started, faultedAt)
		}
		if res.Started >= firstEnd {
			t.Fatalf("retry launched at %v, after the first kernel ended at %v: launches did not overlap", res.Started, firstEnd)
		}
	}

	st := srv.Stats()
	if g := st.GPUs[0]; g.Restarts != 1 || g.Requeued != int64(len(paths)) {
		t.Fatalf("restarts = %d, requeued = %d; want 1 and %d", g.Restarts, g.Requeued, len(paths))
	}
	// What was delivered before the fault stays delivered, once.
	if got, want := st.Completed(), int64(2*len(paths)); got != want {
		t.Fatalf("completed = %d, want %d", got, want)
	}
	// A second resolve would panic on the closed Done; the Future still
	// reads what it delivered.
	for i, fut := range firstFuts {
		if res := fut.Wait(); res.ID != delivered[i].ID || res.Batch != delivered[i].Batch {
			t.Fatalf("job %d now reads job %d of batch %d", delivered[i].ID, res.ID, res.Batch)
		}
	}
}

func TestServeStatsString(t *testing.T) {
	sys, paths := testSystem(t, 2, 1)
	srv := New(sys, Config{})
	for i := 0; i < 4; i++ {
		mustSubmit(t, srv, "alice", Job{Kind: JobSearch, Path: paths[0], Word: "a"})
	}
	srv.Drain()

	out := srv.Stats().String()
	for _, want := range []string{"completed", "latency", "cache:", "gpu 0", "gpu 1", "tenant alice"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats report missing %q:\n%s", want, out)
		}
	}
	st := srv.Stats()
	if p50, p99 := st.LatencyPercentile(50), st.LatencyPercentile(99); p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles: p50=%v p99=%v", p50, p99)
	}

	// Nearest rank: the tail of ten samples is the largest, not the ninth.
	ten := Stats{Latencies: []simtime.Duration{7, 3, 10, 1, 9, 4, 8, 2, 6, 5}}
	for _, c := range []struct {
		p    float64
		want simtime.Duration
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}} {
		if got := ten.LatencyPercentile(c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestServeEnqueueTraceOps(t *testing.T) {
	sys, paths := testSystem(t, 1, 1)
	tr := sys.EnableTracing(1 << 12)
	srv := New(sys, Config{})
	res := mustSubmit(t, srv, "t", Job{Kind: JobSearch, Path: paths[0], Word: "a"}).Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	srv.Drain()

	var haveEnq, haveBatch, haveDispatch bool
	for _, e := range tr.Snapshot() {
		switch e.Op {
		case trace.OpEnqueue:
			haveEnq = true
		case trace.OpBatch:
			haveBatch = true
		case trace.OpDispatch:
			haveDispatch = true
			if e.End <= e.Start {
				t.Fatalf("dispatch span empty: %+v", e)
			}
		}
	}
	if !haveEnq || !haveBatch || !haveDispatch {
		t.Fatalf("missing serve trace ops: enqueue=%v batch=%v dispatch=%v",
			haveEnq, haveBatch, haveDispatch)
	}
}

// enqueueTogether admits one search job per path in one critical section,
// all arriving at the given instant, so the worker's next rounds see a full
// queue: len(paths) / MaxBatch launches, whatever the host scheduler does.
func enqueueTogether(t *testing.T, srv *Server, tenant string, paths []string, arrival simtime.Time) []*Future {
	t.Helper()
	futs := make([]*Future, len(paths))
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, p := range paths {
		fut, _, err := srv.enqueueLocked(tenant, Job{Kind: JobSearch, Path: p, Word: "a"}, arrival)
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		futs[i] = fut
	}
	return futs
}

func mustSubmit(t *testing.T, srv *Server, tenant string, spec Job) *Future {
	t.Helper()
	fut, err := srv.Submit(tenant, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return fut
}

func TestServeVirtualDurationEstimate(t *testing.T) {
	// Sanity on the retry-after estimator: more backlog, longer hint.
	sys, _ := testSystem(t, 2, 1)
	srv := New(sys, Config{})
	defer srv.Drain()

	srv.mu.Lock()
	idle := srv.retryAfterLocked()
	srv.running[0] = make([]*job, 10*srv.cfg.MaxBatch)
	loaded := srv.retryAfterLocked()
	srv.running[0] = nil
	srv.mu.Unlock()

	if idle <= 0 || loaded < idle {
		t.Fatalf("retry-after estimates: idle=%v loaded=%v", idle, loaded)
	}
	if idle < 100*simtime.Microsecond {
		t.Fatalf("idle estimate below floor: %v", idle)
	}
}

func TestServeShardLanesFanOut(t *testing.T) {
	// On a sharded-transport system, one batch's blocks must hash across
	// multiple RPC ring shards, and the stats must record the spread.
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 1
	cfg.RPCShards = 4
	cfg.DaemonWorkers = 4
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	dict := workloads.MakeDictionary(100)
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/lanes/f%02d.txt", i)
		text := workloads.MakeText(4<<10, workloads.TextSpec{
			Dict: dict, DictFraction: 0.7, Seed: int64(2000 + i),
		})
		if err := sys.WriteHostFile(paths[i], text); err != nil {
			t.Fatalf("WriteHostFile: %v", err)
		}
	}

	srv := New(sys, Config{MaxBatch: 8})
	futs := make([]*Future, len(paths))
	for i, p := range paths {
		fut, err := srv.Submit("tenant", Job{Kind: JobSearch, Path: p, Word: "aa"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			t.Fatalf("job %d: %v", res.ID, res.Err)
		}
	}
	srv.Drain()

	st := srv.Stats()
	if lanes := st.GPUs[0].ShardLanes; lanes < 2 {
		t.Fatalf("ShardLanes = %d on a 4-shard transport, want >= 2", lanes)
	}
	if lanes := st.GPUs[0].ShardLanes; lanes > 4 {
		t.Fatalf("ShardLanes = %d exceeds the shard count 4", lanes)
	}
}

// TestStatsBacklogBalances polls Stats while jobs run: in every snapshot the
// admitted jobs not yet finished are exactly the queued ones plus the ones
// in flight. A job of a running batch that has completed counts as
// finished, not also as in flight, and InflightIDs names each job in flight
// once.
func TestStatsBacklogBalances(t *testing.T) {
	sys, paths := testSystem(t, 2, 8)
	srv := New(sys, Config{MaxBatch: 8, QueueDepth: 1 << 10})
	const jobs = 600
	futs := make([]*Future, 0, jobs)
	for i := 0; i < jobs; i++ {
		fut, err := srv.Submit(fmt.Sprintf("t%d", i%3), Job{Kind: JobSearch, Path: paths[i%len(paths)], Word: "e"})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	done := make(chan struct{})
	go func() {
		for _, f := range futs {
			f.Wait()
		}
		close(done)
	}()
	for polls := 0; ; polls++ {
		st := srv.Stats()
		var open int64
		for _, ts := range st.Tenants {
			open += ts.Submitted - ts.Completed - ts.Failed - ts.HandedOff
		}
		if open != int64(st.Queued+st.Inflight) {
			t.Fatalf("poll %d: %d jobs admitted and unfinished, but %d queued + %d in flight",
				polls, open, st.Queued, st.Inflight)
		}
		seen := make(map[uint64]bool, len(st.InflightIDs))
		for _, id := range st.InflightIDs {
			if seen[id] || id < 1 || id > jobs {
				t.Fatalf("poll %d: in-flight IDs %v repeat or name no job", polls, st.InflightIDs)
			}
			seen[id] = true
		}
		if len(st.InflightIDs) != st.Inflight {
			t.Fatalf("poll %d: %d jobs in flight, IDs %v", polls, st.Inflight, st.InflightIDs)
		}
		select {
		case <-done:
			srv.Drain()
			return
		default:
		}
	}
}
