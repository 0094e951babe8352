package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// daemonWorkerSteps are the worker/shard counts the scaling experiment
// sweeps, mirroring the paper's observation that the GPUfs daemon services
// its RPC queues with parallel CPU threads (§4.2).
var daemonWorkerSteps = []int{1, 2, 4, 8}

// DaemonScaling measures how virtual-time makespan responds to the number
// of daemon workers and RPC ring shards, on two RPC-bound workloads:
//
//   - grep over many small files with a 56-block kernel — the
//     gopen/gread/gclose storm of §5.2.2, where every block funnels its
//     metadata traffic through the host daemon; and
//   - a big sequential read issued as multi-page greads, whose page
//     fetches pipeline on each block's ring and fan out across shards.
//
// The single-worker rows reproduce the original serialized daemon; the
// speedup columns show the parallel-daemon win.
func DaemonScaling(scale float64) (*Table, error) {
	return daemonScaling(scale, daemonGrepFiles, daemonReadBytes)
}

// Corpus sizing: enough small files that daemon occupancy — not GPU
// compute — bounds the grep makespan (the dictionary is kept tiny: match
// work is dictionary × text, and a big dictionary turns the run
// compute-bound, hiding the daemon entirely), and a read large enough to
// keep tens of page fetches in flight while staying resident in the
// scaled buffer cache.
const (
	daemonGrepFiles = 960
	daemonGrepBytes = 2 << 10 // per file
	daemonDictWords = 100
	daemonReadBytes = 48 << 20
)

func daemonScaling(scale float64, grepFiles int, readBytes int64) (*Table, error) {
	t := &Table{
		ID:    "Daemon",
		Title: "daemon workers × RPC ring shards: 56-block grep and big-read makespan",
		Header: []string{"workers×shards", "grep 56blk", "grep speedup",
			"big-read", "read speedup", "read MB/s"},
	}

	var grepBase, readBase simtime.Duration
	for _, w := range daemonWorkerSteps {
		grepEl, readEl, err := daemonScalingPoint(scale, w, grepFiles, readBytes)
		if err != nil {
			return nil, fmt.Errorf("daemon scaling at %d workers: %w", w, err)
		}
		if w == 1 {
			grepBase, readBase = grepEl, readEl
		}
		rate := simtime.Rate(float64(readBytes) / readEl.Seconds())
		t.AddRow(fmt.Sprintf("%d", w),
			secs(grepEl), fmt.Sprintf("%.2fx", float64(grepBase)/float64(grepEl)),
			secs(readEl), fmt.Sprintf("%.2fx", float64(readBase)/float64(readEl)),
			mbps(rate))
	}
	t.AddNote("workers = daemon threads = ring shards; blocks hash to shards, shard s pinned to worker s mod W")
	t.AddNote("grep (metadata-heavy) scales with workers; the big read saturates host memory + DMA with batched fetches, so extra workers cannot add bandwidth")
	t.AddNote("grep: %d files × %s, %d-word dictionary; read: %s in %s greads (4-page batched fetches)",
		grepFiles, sizeLabel(daemonGrepBytes), daemonDictWords,
		sizeLabel(readBytes), sizeLabel(4*(256<<10)))
	return t, nil
}

// daemonScalingPoint builds a fresh machine with the given worker/shard
// count, regenerates the identical corpus, and measures both workloads
// cold-cache. Returns (grep elapsed, big-read elapsed).
func daemonScalingPoint(scale float64, workers, grepFiles int, readBytes int64) (simtime.Duration, simtime.Duration, error) {
	cfg := gpufs.ScaledConfig(scale)
	cfg.RPCShards = workers
	cfg.DaemonWorkers = workers
	sys, err := newSystem(cfg)
	if err != nil {
		return 0, 0, err
	}

	dict := workloads.MakeDictionary(daemonDictWords)
	if err := sys.WriteHostFile("/bench/daemon/dict.txt", dict.Encode()); err != nil {
		return 0, 0, err
	}
	tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
		Dir:        "/bench/daemon/src",
		NumFiles:   grepFiles,
		TotalBytes: int64(grepFiles) * daemonGrepBytes,
		Text:       workloads.TextSpec{Dict: dict, DictFraction: 0.35, Seed: 31},
	})
	if err != nil {
		return 0, 0, err
	}
	if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/daemon/big.bin", readBytes, 32); err != nil {
		return 0, 0, err
	}

	// Both workloads run with a WARM host page cache (the corpus was just
	// written): cold runs are disk-seek-bound, which hides the daemon
	// entirely. The quantity under test is host-service parallelism, so
	// the host I/O must come from memory.
	blocks := 4 * cfg.MPsPerGPU // 56 at the paper's 14-MP GPU
	sys.ResetTime()
	gres, err := workloads.GrepGPUfs(sys, 0, "/bench/daemon/dict.txt", tree.ListPath,
		"/bench/daemon/out.txt", cfg.GrepGPURate, blocks, 512, 0, 0)
	if err != nil {
		return 0, 0, err
	}

	// The big read runs on a second GPU so grep's residual buffer-cache
	// state cannot skew it; chunk = 4 pages exercises the batched
	// multi-page fetch path.
	sys.ResetTime()
	rres, err := workloads.SeqReadGPUfsGread(sys, 1, "/bench/daemon/big.bin", readBytes,
		blocks, 512, 4*cfg.PageSize)
	if err != nil {
		return 0, 0, err
	}
	return gres.Elapsed, rres.Elapsed, nil
}
