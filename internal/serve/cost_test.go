package serve

import (
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/simtime"
	"gpufs/internal/simtime/simtest"
)

// Golden cost tests for the launch path: when a batch is issued and when its
// kernel ends, for warm jobs on an idle device, with every expected value
// computed from the rig's parameters (internal/core/cost_test.go and
// internal/gsys/cost_test.go pin the layers below the same way). A change to
// when the server issues a launch, or to how the device places overlapping
// kernels, fails here before it moves a throughput figure.

// costRig is one GPU with files cache-resident files of size bytes (one page
// each, retired to the closed file table), every clock at zero, and a server
// over it that has launched nothing.
type costRig struct {
	srv   *Server
	paths []string
	oh    simtime.Duration // KernelLaunchOverhead
	job   simtime.Duration // one job alone on an MP
	hit   simtime.Duration // its read of the resident page: what it needs of the memory system
	mps   int
}

func newCostRig(t *testing.T, mps, blocksPerMP, files int, size int64, maxBatch int) *costRig {
	t.Helper()
	simtest.OneP(t) // blocks book the shared memory system in slot order
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs, cfg.MPsPerGPU, cfg.BlocksPerMP = 1, mps, blocksPerMP
	if size > cfg.PageSize {
		t.Fatalf("rig: a %d-byte file is more than one %d-byte page", size, cfg.PageSize)
	}
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &costRig{oh: cfg.KernelLaunchOverhead, mps: mps}
	for i := 0; i < files; i++ {
		r.paths = append(r.paths, fmt.Sprintf("/cost/f%02d", i))
		if err := sys.WriteHostFile(r.paths[i], make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = sys.GPU(0).Launch(0, files, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(r.paths[c.Idx], gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		if _, err := c.Gread(fd, make([]byte, size), 0); err != nil {
			return err
		}
		return c.Gclose(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTime()

	r.srv = New(sys, Config{MaxBatch: maxBatch, QueueDepth: files})
	t.Cleanup(r.srv.Drain)
	// execJob on a warm file: gopen (bookkeeping, then the generation peek
	// that lets it reuse the closed-table entry), gfstat, a gread that hits,
	// gclose, and the scan at the job's share of the device's rate.
	r.hit = cfg.RadixLookupLockFree + simtime.TransferTime(size, cfg.GPUMemBandwidth)
	r.job = 3*cfg.APICostPerPage + gsys.PeekCost + r.hit +
		simtime.TransferTime(size, simtime.Rate(cfg.GrepGPURate/float64(mps)))
	return r
}

// burst admits one job per file at virtual time 0, all in one scheduling
// round's view, and returns the results in submission order.
func (r *costRig) burst(t *testing.T, jobs int) []Result {
	t.Helper()
	out := make([]Result, jobs)
	for i, fut := range enqueueTogether(t, r.srv, "t", r.paths[:jobs], 0) {
		if out[i] = fut.Wait(); out[i].Err != nil {
			t.Fatalf("job %d: %v", i, out[i].Err)
		}
	}
	return out
}

// at is a virtual instant, measured from the burst's arrival at 0.
func at(d simtime.Duration) simtime.Time { return simtime.Time(0).Add(d) }

// TestCostOneLaunch: a batch is one kernel, issued when its jobs arrive, and
// every job is delivered when the kernel ends. Fourteen jobs have an MP each
// and differ only in their turn at the memory system, which all of them
// reach at the same instant; sixteen put two jobs on two of the MPs, one
// after the other.
func TestCostOneLaunch(t *testing.T) {
	for _, jobs := range []int{14, 16} {
		r := newCostRig(t, 14, 2, jobs, 64<<10, 16)
		want := r.oh + r.job + simtime.Duration(jobs-1)*r.hit // the last of the queue for memory
		if jobs > r.mps {
			// Slot 15's job follows slot 1's on MP 1, which was second in
			// that queue; nothing else reads while it does.
			want = r.oh + 2*r.job + r.hit
		}
		for i, res := range r.burst(t, jobs) {
			if res.Started != 0 || res.Done != at(want) {
				t.Errorf("%d jobs, job %d: launched at %v, done at %v; want 0 and %v", jobs, i, res.Started, res.Done, at(want))
			}
		}
	}
}

// TestCostSecondLaunchOverlaps: with more jobs queued than one launch takes,
// the second kernel is issued one launch overhead after the first — not when
// the first ends — and its blocks take execution slots as the first kernel's
// blocks leave them.
func TestCostSecondLaunchOverlaps(t *testing.T) {
	r := newCostRig(t, 14, 2, 32, 64<<10, 16)
	if simtime.Duration(r.mps)*r.hit >= gpufs.ScaledConfig(testScale).APICostPerPage {
		t.Fatalf("rig: %d hits of %v leave a gap a gopen's bookkeeping fits into", r.mps, r.hit)
	}
	// Kernel 0 is TestCostOneLaunch's sixteen. Kernel 1 finds slots 16-27
	// free, each on an MP (2-13) that one of kernel 0's jobs holds until it
	// ends, and gets slots 0-3 for its last four blocks when kernel 0's first
	// four end. MPs 0 and 1 are then serving kernel 0's second job and MPs 2
	// and 3 a block of kernel 1, so four MPs run three jobs back to back; MP
	// 3's chain, whose first job was fourth in the queue for memory, is the
	// last to finish.
	first := r.oh + 2*r.job + r.hit
	second := r.oh + 3*r.job + 3*r.hit
	var launches [2]int
	for i, res := range r.burst(t, 32) {
		switch {
		case res.Started == 0 && res.Done == at(first):
			launches[0]++
		case res.Started == at(r.oh) && res.Done == at(second):
			launches[1]++
		default:
			t.Errorf("job %d: launched at %v, done at %v; want 0 and %v, or %v and %v",
				i, res.Started, res.Done, at(first), at(r.oh), at(second))
		}
	}
	if launches != [2]int{16, 16} {
		t.Errorf("launches carried %v jobs, want 16 each", launches)
	}
	if serial := 2 * first; second >= serial {
		t.Errorf("overlapped makespan %v is not below two kernels back to back, %v", second, serial)
	}
}

// TestCostLaunchPerJob: with MaxBatch 1 the launch thread issues a kernel
// every launch overhead, and while jobs are shorter than the fourteen
// overheads it takes to come back to an MP, each runs as if alone.
func TestCostLaunchPerJob(t *testing.T) {
	const jobs = 20
	r := newCostRig(t, 14, 2, jobs, 64<<10, 1)
	if r.job >= simtime.Duration(r.mps)*r.oh {
		t.Fatalf("rig: a job of %v is still on its MP when the launch thread comes back to it", r.job)
	}
	for i, res := range r.burst(t, jobs) {
		issue := simtime.Duration(i) * r.oh
		if res.Started != at(issue) || res.Done != at(issue+r.oh+r.job) {
			t.Errorf("job %d: launched at %v, done at %v; want %v and %v",
				i, res.Started, res.Done, at(issue), at(issue+r.oh+r.job))
		}
	}
}

// TestCostSeventeenthLaunchWaits: the device holds gpu.MaxResidentKernels
// kernels. With jobs longer than sixteen launch overheads the seventeenth
// kernel becomes resident when the first ends, the eighteenth when the
// second does. Twenty MPs with a slot each, so that an MP is free for every
// job and the kernel table is all there is to wait for.
func TestCostSeventeenthLaunchWaits(t *testing.T) {
	const jobs, table = 20, gpu.MaxResidentKernels
	r := newCostRig(t, 20, 1, jobs, 128<<10, 1)
	if r.job <= table*r.oh {
		t.Fatalf("rig: a job of %v has ended before the %dth launch after it", r.job, table)
	}
	for i, res := range r.burst(t, jobs) {
		issue := simtime.Duration(i) * r.oh
		resident := issue + r.oh
		if i >= table {
			resident = simtime.Duration(i-table+1)*r.oh + r.job // when kernel i-16 ends
		}
		if res.Started != at(issue) || res.Done != at(resident+r.job) {
			t.Errorf("job %d: launched at %v, done at %v; want %v and %v",
				i, res.Started, res.Done, at(issue), at(resident+r.job))
		}
	}
}

// arrive admits one job per arrival instant, job i on file i, all in one
// scheduling round's view, and returns the results in arrival order.
func (r *costRig) arrive(t *testing.T, arrivals ...simtime.Duration) []Result {
	t.Helper()
	futs := make([]*Future, len(arrivals))
	r.srv.mu.Lock()
	for i, a := range arrivals {
		fut, _, err := r.srv.enqueueLocked("t", Job{Kind: JobSearch, Path: r.paths[i], Word: "a"}, at(a))
		if err != nil {
			r.srv.mu.Unlock()
			t.Fatalf("enqueue: %v", err)
		}
		futs[i] = fut
	}
	r.srv.mu.Unlock()
	out := make([]Result, len(futs))
	for i, fut := range futs {
		if out[i] = fut.Wait(); out[i].Err != nil {
			t.Fatalf("job %d: %v", i, out[i].Err)
		}
	}
	return out
}

// TestCostLaterArrivalWaitsForItsOwnLaunch: a job queued beside one that
// arrives later is not held back for it. The first launches alone when it
// arrives; the second launches when it arrives, on an MP of its own, and no
// read of the two meets the other's at the memory system.
func TestCostLaterArrivalWaitsForItsOwnLaunch(t *testing.T) {
	r := newCostRig(t, 14, 2, 2, 64<<10, 16)
	delta := r.job / 2
	if delta < r.oh || delta < r.hit {
		t.Fatalf("rig: the second arrival at %v is inside the launch overhead %v or the first job's read %v", delta, r.oh, r.hit)
	}
	res := r.arrive(t, 0, delta)
	if res[0].Started != 0 || res[0].Done != at(r.oh+r.job) {
		t.Errorf("job 0: launched at %v, done at %v; want 0 and %v", res[0].Started, res[0].Done, at(r.oh+r.job))
	}
	if res[1].Started != at(delta) || res[1].Done != at(delta+r.oh+r.job) {
		t.Errorf("job 1: launched at %v, done at %v; want %v and %v",
			res[1].Started, res[1].Done, at(delta), at(delta+r.oh+r.job))
	}
	if res[0].Batch == res[1].Batch {
		t.Errorf("both jobs rode batch %d", res[0].Batch)
	}
}

// TestCostArrivalsInsideOneOverheadShareTheNextLaunch: jobs arrive 1 µs
// apart, all inside one launch overhead. Job 0 launches alone when it
// arrives, and the launch thread's next issue, one overhead later, carries
// every job that arrived by then: nine jobs on nine free MPs, whose reads
// queue for the memory system as TestCostOneLaunch's do.
func TestCostArrivalsInsideOneOverheadShareTheNextLaunch(t *testing.T) {
	const gap = simtime.Microsecond
	oh := gpufs.ScaledConfig(testScale).KernelLaunchOverhead
	jobs := int(oh / gap)
	r := newCostRig(t, 14, 2, jobs, 64<<10, 16)
	if jobs < 3 || jobs > r.mps {
		t.Fatalf("rig: %d arrivals inside one overhead, want 3 to %d", jobs, r.mps)
	}
	arrivals := make([]simtime.Duration, jobs)
	for i := range arrivals {
		arrivals[i] = simtime.Duration(i) * gap
	}
	res := r.arrive(t, arrivals...)
	if res[0].Started != 0 || res[0].Done != at(r.oh+r.job) {
		t.Errorf("job 0: launched at %v, done at %v; want 0 and %v", res[0].Started, res[0].Done, at(r.oh+r.job))
	}
	second := 2*r.oh + r.job + simtime.Duration(jobs-2)*r.hit
	for i, res := range res[1:] {
		if res.Started != at(r.oh) || res.Done != at(second) {
			t.Errorf("job %d: launched at %v, done at %v; want %v and %v", i+1, res.Started, res.Done, at(r.oh), at(second))
		}
	}
	if st := r.srv.Stats(); st.GPUs[0].Batches != 2 {
		t.Errorf("%d jobs took %d launches, want 2", jobs, st.GPUs[0].Batches)
	}
}
