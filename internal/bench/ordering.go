package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// orderingWorkerSteps are the daemon worker/shard counts the ordering
// experiment sweeps.
var orderingWorkerSteps = []int{1, 4, 8}

// Ordering measures the generic syscall layer's ordering classes (ISSUE
// 7) on the metadata-heavy grep workload: strong routes every call
// through the per-lane FIFO fence (the PR-6 semantics), relaxed lets the
// open-ahead window pipeline opens past the fence, overlapping RPC
// round-trips with reads and compute. Each point is a fresh machine with
// an identical corpus; rows sweep daemon workers = RPC shards. The
// speedup column holding steady across worker counts is the point: the
// win comes from unserializing the lane — hiding round-trips the strong
// class forces into a serial chain — not from adding daemon occupancy,
// which cannot shorten a chain whose requests arrive one at a time.
func Ordering(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Ordering",
		Title:  "syscall ordering: strong (FIFO fence) vs relaxed (open-ahead) grep makespan",
		Header: []string{"workers×shards", "strong", "relaxed", "relaxed speedup"},
	}
	// The relaxed arm's open-ahead window: how many of its next files the
	// grep block opens ahead of need.
	const openAhead = 4
	for _, w := range orderingWorkerSteps {
		strong, err := orderingPoint(scale, w, 0)
		if err != nil {
			return nil, fmt.Errorf("ordering strong at %d workers: %w", w, err)
		}
		relaxed, err := orderingPoint(scale, w, openAhead)
		if err != nil {
			return nil, fmt.Errorf("ordering relaxed at %d workers: %w", w, err)
		}
		t.AddRow(fmt.Sprintf("%d", w),
			msec(strong), msec(relaxed),
			fmt.Sprintf("%.2fx", float64(strong)/float64(relaxed)))
	}
	t.AddNote("strong = every syscall retires through the per-lane FIFO fence (baseline semantics); times in ms")
	t.AddNote("relaxed = opens issue ahead of the fence (window %d), overlapping open round-trips with reads and compute on the same lane", openAhead)
	t.AddNote("the speedup is worker-independent by design: a single-lane serial chain gains nothing from daemon parallelism, only from relaxing its order")
	t.AddNote("grep: 1 block × 64 threads, %d files × %s, %d-word dictionary, cache-resident corpus", orderingGrepFiles,
		sizeLabel(orderingGrepBytes), orderingDictWords)
	return t, nil
}

// Corpus sizing: ordering policy moves the makespan only while the open
// round-trip is on the critical path, so the corpus is many TINY files
// with a near-empty dictionary — per-file compute shrinks toward zero and
// the gopen/gread/gclose storm dominates. (Contrast the daemon experiment,
// which keeps enough match work to measure worker occupancy.)
// The corpus and machine are shaped so ONLY transport ordering moves the
// makespan. Many tiny files with a near-empty dictionary make the serial
// open→fstat→read→close round-trip chain the critical path; both the GPU
// buffer cache and the host page cache are grown to hold every file (each
// pins one page frame on both sides — at the stock scaled capacities the
// run degenerates into eviction thrash and disk seeks, drowning the
// signal). The kernel is ONE block: grep stripes every file's shards
// across all blocks, so with more blocks concurrent opens coalesce and
// the open round-trip amortizes away — the single-lane serial chain is
// where ordering class decides the makespan, and it is also fully
// deterministic, run to run and across worker counts.
const (
	orderingGrepFiles  = 768
	orderingGrepBytes  = 256
	orderingDictWords  = 8
	orderingGrepBlocks = 1
)

// orderingPoint builds a fresh machine with the given worker/shard count,
// regenerates the identical corpus, and measures grep warm-cache with the
// given open-ahead window (0: every call strong).
func orderingPoint(scale float64, workers, openAhead int) (simtime.Duration, error) {
	cfg := gpufs.ScaledConfig(scale)
	cfg.RPCShards = workers
	cfg.DaemonWorkers = workers
	// Cache-resident corpus on both sides of the bus (see the sizing
	// comment above): one frame per file plus headroom.
	frames := int64(orderingGrepFiles + 64)
	if need := frames * cfg.PageSize; cfg.BufferCacheBytes < need {
		cfg.BufferCacheBytes = need
	}
	if need := 2 * cfg.BufferCacheBytes; cfg.GPUMemBytes < need {
		cfg.GPUMemBytes = need
	}
	if need := 4 * cfg.BufferCacheBytes; cfg.CPURAMBytes < need {
		cfg.CPURAMBytes = need
	}
	sys, err := newSystem(cfg)
	if err != nil {
		return 0, err
	}

	dict := workloads.MakeDictionary(orderingDictWords)
	if err := sys.WriteHostFile("/bench/ordering/dict.txt", dict.Encode()); err != nil {
		return 0, err
	}
	tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
		Dir:        "/bench/ordering/src",
		NumFiles:   orderingGrepFiles,
		TotalBytes: int64(orderingGrepFiles) * orderingGrepBytes,
		Text:       workloads.TextSpec{Dict: dict, DictFraction: 0.35, Seed: 31},
	})
	if err != nil {
		return 0, err
	}

	sys.ResetTime()
	res, err := workloads.GrepGPUfs(sys, 0, "/bench/ordering/dict.txt", tree.ListPath,
		"/bench/ordering/out.txt", cfg.GrepGPURate, orderingGrepBlocks, 64, 0, openAhead)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}
