package fleet

import (
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/serve"
)

// placePaths are the cold files the placement tests route.
func placePaths() []string {
	paths := make([]string, 32)
	for i := range paths {
		paths[i] = fmt.Sprintf("/place/file%02d.txt", i)
	}
	return paths
}

// TestFleetHomeIsOneIndex routes one cold job per file through a real
// 2-host x 2-GPU fleet: the host and the GPU inside it must be
// divmod(PathHash mod 4, 2), the fleet's home host and that host's own
// cold-file home read off one index. Hashing the host with the GPU's bit
// (PathHash mod 2), or with another part of the hash, fails.
func TestFleetHomeIsOneIndex(t *testing.T) {
	paths := placePaths()
	cp, err := New(Config{}, 2, SimHostFactory(SimHostConfig{
		NumGPUs: 2,
		Setup: func(_, _ int, sys *gpufs.System) error {
			for _, p := range paths {
				if err := sys.WriteHostFile(p, []byte("one index places "+p)); err != nil {
					return err
				}
			}
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Drain()
	var homes [4]int
	for _, p := range paths {
		fut, err := cp.Submit("t", serve.Job{Kind: serve.JobGrep, Path: p, Word: "index"})
		if err != nil {
			t.Fatal(err)
		}
		res := fut.Wait()
		if res.Err != nil || res.Count != 1 {
			t.Fatalf("%s: count %d, err %v", p, res.Count, res.Err)
		}
		g := int(serve.PathHash(p) % 4)
		if res.Host != g/2 || res.GPU != g%2 {
			t.Fatalf("%s ran on host %d GPU %d, want host %d GPU %d (GPU %d of 4)",
				p, res.Host, res.GPU, g/2, g%2, g)
		}
		homes[g]++
	}
	t.Logf("files homed per GPU: %v", homes)
}

// TestFleetHomeIgnoresLoad loads either host of a 2 x 2-GPU fleet with up
// to SpillLoad-1 jobs of a file it caches, then routes every cold file: each
// goes to the host owning GPU PathHash mod 4, whatever the other host's
// open count.
func TestFleetHomeIgnoresLoad(t *testing.T) {
	const spill = 64
	paths := placePaths()
	ff := newFakeFleet(false)
	cp, err := New(Config{SpillLoad: spill}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	fakes := [2]*FakeBackend{ff.fake(0, 0), ff.fake(1, 0)}
	defer func() {
		// Drain waits for every admitted job, so complete what a failure
		// left queued first.
		for _, f := range fakes {
			f.Complete(-1)
		}
		cp.Drain()
	}()
	for h, f := range fakes {
		f.SetGPUs(2)
		f.SetResident(fmt.Sprintf("/load%d", h), 1)
	}
	for loaded := range fakes {
		for _, extra := range []int{0, 1, 7, spill - 1 - len(paths)} {
			for i := 0; i < extra; i++ {
				if _, err := cp.Submit("load", job(fmt.Sprintf("/load%d", loaded))); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range paths {
				before := [2]int{fakes[0].Load(), fakes[1].Load()}
				if _, err := cp.Submit("t", job(p)); err != nil {
					t.Fatal(err)
				}
				want := int(serve.PathHash(p)%4) / 2
				if fakes[want].Load() != before[want]+1 {
					t.Fatalf("%s (home host %d) went elsewhere with open counts %v, host %d carrying %d extra",
						p, want, before, loaded, extra)
				}
			}
			for _, f := range fakes {
				f.Complete(-1)
			}
		}
	}
}

// TestFleetBalancedBusyHostsKeepTheirFiles holds two 1-GPU hosts at or
// past SpillLoad with equal loads, each warm for its own file, and routes
// jobs of both files in runs of up to eight while completions bring the
// loads back: every job must stay on its warm host, since neither host
// carries more than (1+ε) times its share. A rule that demotes every busy
// host ranks both by load and sends host 1's file to host 0 on the tie.
func TestFleetBalancedBusyHostsKeepTheirFiles(t *testing.T) {
	const spill = 64
	ff := newFakeFleet(false)
	cp, err := New(Config{SpillLoad: spill}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	fakes := [2]*FakeBackend{ff.fake(0, 0), ff.fake(1, 0)}
	defer func() {
		for _, f := range fakes {
			f.Complete(-1)
		}
		cp.Drain()
	}()
	warm := [2]string{"/warm0", "/warm1"}
	for h, f := range fakes {
		f.SetResident(warm[h], 1)
		for i := 0; i < spill; i++ {
			if _, err := cp.Submit("load", job(warm[h])); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round, run := range []int{1, 1, 2, 8, 3, 8, 1} {
		for _, h := range []int{1, 0} {
			for i := 0; i < run; i++ {
				before := [2]int{fakes[0].Load(), fakes[1].Load()}
				if _, err := cp.Submit("t", job(warm[h])); err != nil {
					t.Fatal(err)
				}
				if fakes[h].Load() != before[h]+1 {
					t.Fatalf("round %d: %s (warm on host %d) left it at open counts %v",
						round, warm[h], h, before)
				}
			}
		}
		// Settles decrement the open counts that routing reads.
		for _, f := range fakes {
			f.Complete(run)
		}
	}
}

// TestFleetHotFileShedsOnlyItsExcess routes jobs of one file, warm on host
// 0, into four idle 2-GPU hosts and completes none. After each submit no
// host may carry more than max(SpillLoad, ⌈(1+ε)·O·g/G⌉) jobs, O counting
// them all, and the warm host must carry exactly that bound (or every job,
// while fewer were sent): it sheds its excess and nothing more. A fleet
// that never spills breaks the ceiling; one that sheds at SpillLoad
// whatever the others carry breaks the floor.
func TestFleetHotFileShedsOnlyItsExcess(t *testing.T) {
	const spill, hosts, gpus, jobs = 16, 4, 2, 400
	ff := newFakeFleet(false)
	cp, err := New(Config{SpillLoad: spill}, hosts, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	var fakes [hosts]*FakeBackend
	for h := range fakes {
		fakes[h] = ff.fake(h, 0)
		fakes[h].SetGPUs(gpus)
	}
	defer func() {
		for _, f := range fakes {
			f.Complete(-1)
		}
		cp.Drain()
	}()
	fakes[0].SetResident("/hot", 8)
	for o := 1; o <= jobs; o++ {
		if _, err := cp.Submit("t", job("/hot")); err != nil {
			t.Fatal(err)
		}
		// max(spill, ⌈1.1·o·gpus/(hosts·gpus)⌉): the least load at or
		// over the share once o jobs are out.
		bound := spill
		for !serve.OverShare(bound, o-1, gpus, hosts*gpus) {
			bound++
		}
		var loads [hosts]int
		for h, f := range fakes {
			loads[h] = f.Load()
			if loads[h] > bound {
				t.Fatalf("after %d jobs host %d carries %d, over its bound %d (loads %v)", o, h, loads[h], bound, loads)
			}
		}
		if want := min(o, bound); loads[0] != want {
			t.Fatalf("after %d jobs the warm host carries %d, want %d (loads %v)", o, loads[0], want, loads)
		}
	}
	for h, f := range fakes {
		if f.Load() == 0 {
			t.Fatalf("host %d took none of the hot file's excess", h)
		}
	}
}
