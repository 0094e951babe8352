package serve

import (
	"testing"

	"gpufs"
)

// warm reads path whole on GPU g, so its pages stay in g's buffer cache.
func warm(t *testing.T, sys *gpufs.System, g int, path string) {
	t.Helper()
	data, err := sys.ReadHostFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GPU(g).Launch(0, 1, 1, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		if _, err := c.Gread(fd, make([]byte, len(data)), 0); err != nil {
			return err
		}
		return c.Gclose(fd)
	}); err != nil {
		t.Fatal(err)
	}
	if sys.GPU(g).ResidentPages(path) == 0 {
		t.Fatalf("%s is not resident on gpu %d after a whole read", path, g)
	}
}

// holdLocked takes srv.mu so a test can route against loads it sets by
// hand in srv.running; the returned release empties them and unlocks, since
// Drain waits for every running slot to empty.
func holdLocked(srv *Server) (release func()) {
	srv.mu.Lock()
	return func() {
		for g := range srv.running {
			srv.running[g] = nil
		}
		srv.mu.Unlock()
	}
}

// routeAndHold routes one search job over path and holds it on the chosen
// GPU as running, so the next route sees its load. srv.mu held.
func routeAndHold(srv *Server, path string) int {
	j := &job{spec: Job{Kind: JobSearch, Path: path, Word: "a"}}
	g := srv.routeLocked(j)
	srv.running[g] = append(srv.running[g], j)
	return g
}

// TestServeAffinityTieGoesToLeastLoaded warms one file on both GPUs and
// loads GPU 0 more than GPU 1: the job goes to GPU 1, and a tie broken by
// load is not a spill. A rule that breaks ties by GPU index sends it to 0.
func TestServeAffinityTieGoesToLeastLoaded(t *testing.T) {
	sys, paths := testSystem(t, 2, 1)
	warm(t, sys, 0, paths[0])
	warm(t, sys, 1, paths[0])
	if p0, p1 := sys.GPU(0).ResidentPages(paths[0]), sys.GPU(1).ResidentPages(paths[0]); p0 != p1 {
		t.Fatalf("resident pages %d and %d: not a tie", p0, p1)
	}
	srv := New(sys, Config{Policy: PlaceAffinity})
	defer srv.Drain()

	release := holdLocked(srv)
	srv.running[0] = make([]*job, 2)
	got := routeAndHold(srv, paths[0])
	spilled := srv.gstats[0].Spilled + srv.gstats[1].Spilled
	release()

	if got != 1 {
		t.Fatalf("a file warm on both GPUs went to gpu %d, want the less-loaded gpu 1", got)
	}
	if spilled != 0 {
		t.Fatalf("spill counter = %d, want 0: the tie rule is not a spill", spilled)
	}
}

// TestServeBalancedBusyGPUsKeepTheirFiles holds two GPUs at the busy floor
// (4×MaxBatch) with equal loads, each warm for its own file, and routes
// jobs of both files in runs of up to three, the loads falling back to the
// floor after each round: every job must stay on its warm GPU, since
// neither GPU carries more than (1+ε) times its share. A rule that spills
// every busy GPU to a less-loaded one sends the second job of a run away.
func TestServeBalancedBusyGPUsKeepTheirFiles(t *testing.T) {
	sys, paths := testSystem(t, 2, 2)
	warm(t, sys, 0, paths[0])
	warm(t, sys, 1, paths[1])
	srv := New(sys, Config{Policy: PlaceAffinity, MaxBatch: 1, QueueDepth: 64})
	defer srv.Drain()

	defer holdLocked(srv)()
	floor := 4 * srv.cfg.MaxBatch
	for round, run := range []int{1, 1, 2, 3, 1, 3} {
		srv.running[0], srv.running[1] = make([]*job, floor), make([]*job, floor)
		for _, g := range []int{1, 0} {
			for i := 0; i < run; i++ {
				before := [2]int{srv.loadLocked(0), srv.loadLocked(1)}
				if got := routeAndHold(srv, paths[g]); got != g {
					t.Fatalf("round %d: %s (warm on gpu %d) went to gpu %d at loads %v",
						round, paths[g], g, got, before)
				}
			}
		}
	}
}

// TestServeHotFileShedsOnlyItsExcess routes jobs of one file, warm on GPU
// 0, into four idle GPUs and completes none. After each route no GPU may
// carry more than max(4×MaxBatch, ⌈(1+ε)·O/4⌉) jobs, O counting every job
// routed; the warm GPU must carry exactly min(O, that bound), and every
// GPU must end with some of the excess. A GPU that never spills fails the
// bound at the fifth job.
func TestServeHotFileShedsOnlyItsExcess(t *testing.T) {
	const gpus, jobs = 4, 64
	sys, paths := testSystem(t, gpus, 1)
	warm(t, sys, 0, paths[0])
	srv := New(sys, Config{Policy: PlaceAffinity, MaxBatch: 1, QueueDepth: jobs})
	defer srv.Drain()

	defer holdLocked(srv)()
	var loads [gpus]int
	for o := 1; o <= jobs; o++ {
		routeAndHold(srv, paths[0])
		bound := 4 * srv.cfg.MaxBatch
		for !OverShare(bound, o-1, 1, gpus) {
			bound++
		}
		for g := range loads {
			if loads[g] = srv.loadLocked(g); loads[g] > bound {
				t.Fatalf("after %d jobs gpu %d carries %d, over its bound %d (loads %v)", o, g, loads[g], bound, loads)
			}
		}
		if want := min(o, bound); loads[0] != want {
			t.Fatalf("after %d jobs the warm gpu carries %d, want %d (loads %v)", o, loads[0], want, loads)
		}
	}
	for g, l := range loads {
		if l == 0 {
			t.Fatalf("gpu %d took none of the hot file's excess (loads %v)", g, loads)
		}
	}
}
