package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"gpufs"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// serveRow is one serving configuration's measured outcome.
type serveRow struct {
	label      string
	makespan   simtime.Duration
	throughput float64 // jobs per virtual second
	hitRate    float64 // affinity hit fraction of completed jobs
	pageFaults int64   // buffer-cache frame allocations across GPUs
	batchMean  float64 // jobs per kernel launch
}

// serveCase fixes an experiment shape. The fault-bound one
// (defaultServeCase) is a 2-GPU machine whose per-GPU buffer cache holds
// well over half the corpus but not all of it, so a placement policy that
// partitions files across devices keeps every hot file resident while one
// that sprays requests pulls the whole corpus through both caches. The
// launch-bound one (launchBoundServeCase) is the opposite corner: one small
// page per file, every file resident before the clock starts, so a job is a
// few bookkeeping charges and a short scan, comparable to a kernel launch,
// and what a launch costs is what there is to save.
type serveCase struct {
	numGPUs    int
	files      int
	pagesEach  int64
	pageSize   int64 // 0: the machine's default
	cachePages int64
	warm       bool // run one job per file before measuring
	tenants    int
	jobsEach   int
	depth      int
}

func defaultServeCase() serveCase {
	return serveCase{
		numGPUs:    2,
		files:      32,
		pagesEach:  12,  // corpus: 384 pages
		cachePages: 240, // half corpus (192) fits, whole corpus does not
		tenants:    8,
		jobsEach:   50,
		depth:      8,
	}
}

func launchBoundServeCase() serveCase {
	return serveCase{
		numGPUs:    2,
		files:      32,
		pagesEach:  1,
		pageSize:   4 << 10,
		cachePages: 64, // twice the corpus: a spilled or stolen job evicts nothing
		warm:       true,
		tenants:    8,
		jobsEach:   200,
		depth:      8,
	}
}

// runServe measures one (policy, batch) configuration on a fresh machine.
func runServe(scale float64, sc serveCase, policy serve.Policy, maxBatch int) (serveRow, error) {
	row := serveRow{label: fmt.Sprintf("%v, batch %d", policy, maxBatch)}

	cfg := gpufs.ScaledConfig(scale)
	cfg.NumGPUs = sc.numGPUs
	if sc.pageSize > 0 {
		cfg.PageSize = sc.pageSize
	}
	cfg.BufferCacheBytes = sc.cachePages * cfg.PageSize
	if cfg.GPUMemBytes < 2*cfg.BufferCacheBytes {
		cfg.GPUMemBytes = 2 * cfg.BufferCacheBytes
	}
	sys, err := newSystem(cfg)
	if err != nil {
		return row, err
	}

	dict := workloads.MakeDictionary(200)
	paths := make([]string, sc.files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/servebench/f%03d.txt", i)
		text := workloads.MakeText(sc.pagesEach*cfg.PageSize, workloads.TextSpec{
			Dict: dict, DictFraction: 0.8, Seed: int64(9000 + i),
		})
		if err := sys.WriteHostFile(paths[i], text); err != nil {
			return row, err
		}
	}

	srv := serve.New(sys, serve.Config{
		Policy:     policy,
		MaxBatch:   maxBatch,
		QueueDepth: sc.depth,
	})
	if sc.warm {
		if err := warmServe(srv, paths); err != nil {
			srv.Drain()
			return row, err
		}
	}
	warm := srv.Stats()

	var wg sync.WaitGroup
	var submitErr error
	var errOnce sync.Once
	for ti := 0; ti < sc.tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", ti)
			rng := rand.New(rand.NewSource(int64(31 + ti)))
			sem := make(chan struct{}, sc.depth)
			var inner sync.WaitGroup
			for ji := 0; ji < sc.jobsEach; ji++ {
				sem <- struct{}{}
				// Zipf-ish skew: most requests land on a hot few files.
				var pi int
				if rng.Intn(100) < 70 {
					pi = rng.Intn(8)
				} else {
					pi = rng.Intn(len(paths))
				}
				spec := serve.Job{Kind: serve.JobSearch, Path: paths[pi], Word: "th"}
				var fut *serve.Future
				for {
					var err error
					fut, err = srv.Submit(name, spec)
					if err == nil {
						break
					}
					if !errors.Is(err, serve.ErrOverloaded) {
						errOnce.Do(func() { submitErr = err })
						<-sem
						return
					}
					runtime.Gosched()
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					fut.Wait()
					<-sem
				}()
			}
			inner.Wait()
		}(ti)
	}
	wg.Wait()
	srv.Drain()
	if submitErr != nil {
		return row, submitErr
	}

	st := srv.Stats()
	total := st.Completed() + st.Failed() - warm.Completed() - warm.Failed()
	row.makespan = st.Now.Sub(warm.Now)
	if secs := row.makespan.Seconds(); secs > 0 {
		row.throughput = float64(total) / secs
	}
	row.hitRate = st.AffinityHitRate()
	row.batchMean = st.BatchFactor()
	for g := 0; g < sc.numGPUs; g++ {
		row.pageFaults += sys.GPU(g).FS().Cache().Allocs()
	}
	return row, nil
}

// warmServe runs one job per file and waits them out, which leaves every
// file resident on the GPU its later jobs will be placed on.
func warmServe(srv *serve.Server, paths []string) error {
	futs := make([]*serve.Future, len(paths))
	for i, p := range paths {
		fut, err := srv.Submit(fmt.Sprintf("warm-%d", i), serve.Job{Kind: serve.JobSearch, Path: p, Word: "th"})
		if err != nil {
			return err
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// Serve compares the serving layer's placement and batching policies:
// cache-affinity routing against round-robin on a skewed hot-file workload
// that is bound by page faults, and continuous batching against
// one-launch-per-request on that shape and on a launch-bound one (small
// cache-resident jobs). It is the bench artifact for the internal/serve
// subsystem rather than a paper figure.
func Serve(scale float64) (*Table, error) {
	fault, launch := defaultServeCase(), launchBoundServeCase()
	t := &Table{
		ID: "Serve",
		Title: fmt.Sprintf("multi-tenant serving: %d tenants over %d GPUs, %d-file corpus (hot-8 skew); fault-bound: %d jobs each, %d-page files through a %d-page cache; launch-bound: %d jobs each, resident %d KiB files",
			fault.tenants, fault.numGPUs, fault.files, fault.jobsEach, fault.pagesEach, fault.cachePages,
			launch.jobsEach, launch.pagesEach*launch.pageSize>>10),
		Header: []string{"shape, policy", "makespan (ms)", "jobs/s (virtual)", "affinity hits", "page faults", "jobs/launch"},
	}

	configs := []struct {
		shape  string
		sc     serveCase
		policy serve.Policy
		batch  int
	}{
		{"fault-bound", fault, serve.PlaceAffinity, 16},
		{"fault-bound", fault, serve.PlaceRoundRobin, 16},
		{"fault-bound", fault, serve.PlaceAffinity, 1},
		{"launch-bound", launch, serve.PlaceAffinity, 16},
		{"launch-bound", launch, serve.PlaceAffinity, 1},
	}
	for _, c := range configs {
		row, err := runServe(scale, c.sc, c.policy, c.batch)
		if err != nil {
			return nil, fmt.Errorf("serve bench (%s, %v, batch %d): %w", c.shape, c.policy, c.batch, err)
		}
		t.AddRow(c.shape+": "+row.label,
			msec(row.makespan),
			fmt.Sprintf("%.0f", row.throughput),
			fmt.Sprintf("%.0f%%", 100*row.hitRate),
			fmt.Sprintf("%d", row.pageFaults),
			fmt.Sprintf("%.1f", row.batchMean))
	}
	t.AddNote("affinity keeps each file's pages on one GPU: higher hit rate and fewer faults than round-robin")
	t.AddNote("launches overlap, so one launch per request no longer idles the device between kernels: on the fault-bound shape what separates batch 1 from batch 16 is its page faults (a GPU's busy floor is 4x MaxBatch, so it spills and steals from a load of 4 once over its share), not its launches")
	t.AddNote("what batching buys is launches: a GPU's launch thread issues one kernel per launch overhead, which caps batch 1 on the launch-bound shape")
	return t, nil
}
