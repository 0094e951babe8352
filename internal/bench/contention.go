package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// contentionWorkerSteps are the daemon worker/shard counts the contention
// experiment sweeps.
var contentionWorkerSteps = []int{1, 4, 8}

// Contention measures the ISSUE 8 lock-free hot path under mixed
// reader/writer load on one hot file: reader blocks stream a
// cache-resident region (pure buffer-cache hits), while writer blocks
// dirty their own region of the same file and gfsync it through the host
// daemon. Each row compares the paper's prototype (copying hit path,
// single-shard frame allocator, no read-ahead or cleaner) against the
// extended system (zero-copy hits, per-MP sharded allocator) on an otherwise
// identical machine, sweeping daemon workers = RPC shards.
//
// The speedup column GROWS with workers: at one worker the writers'
// serialized fsync round-trips dominate the makespan and mask the GPU-side
// win, but as daemon parallelism absorbs the write-back traffic the
// machine becomes device-memory-bound — exactly where the zero-copy hit
// path (one bandwidth pass per byte instead of two) pays off.
func Contention(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Contention",
		Title:  "readers × writers over one hot file: locked/copying vs lock-free/zero-copy hit path",
		Header: []string{"workers×shards", "baseline", "lock-free+zero-copy", "speedup"},
	}
	for _, w := range contentionWorkerSteps {
		base, err := meanContention(reps, scale, w, false)
		if err != nil {
			return nil, fmt.Errorf("contention baseline at %d workers: %w", w, err)
		}
		fast, err := meanContention(reps, scale, w, true)
		if err != nil {
			return nil, fmt.Errorf("contention lock-free at %d workers: %w", w, err)
		}
		t.AddRow(fmt.Sprintf("%d", w),
			msec(base), msec(fast),
			fmt.Sprintf("%.2fx", float64(base)/float64(fast)))
	}
	t.AddNote("baseline = Prototype (the paper's copying hit path and single frame list); times in ms")
	t.AddNote("lock-free = zero-copy cache hits (one device-memory pass per byte) + per-MP sharded frame allocator")
	t.AddNote("kernel per point: 2×W reader blocks × %d passes over a hot %s region in %s greads, W writer blocks × %d passes dirtying %s each + gfsync",
		contentionReadPasses, sizeLabel(contentionReadBytes), sizeLabel(contentionChunk), contentionWritePasses, sizeLabel(contentionWriteBytes))
	t.AddNote("the speedup rises with workers: daemon parallelism drains the write-back traffic until device memory bandwidth bounds the run")
	return t, nil
}

// Workload sizing: the hot read region and every writer's slice stay
// buffer-cache-resident (the quantity under test is the HIT path, not
// paging), the gread chunk fits the 48 KB scratchpad, and the writers
// carry enough dirty data that their fsync truly contends with readers on
// the device memory bus and the daemon.
const (
	contentionReadBytes   = 4 << 20   // hot region every reader streams
	contentionWriteBytes  = 256 << 10 // per-writer private slice of the same file
	contentionChunk       = 32 << 10  // gread/gwrite granularity
	contentionReadPasses  = 16
	contentionWritePasses = 3
)

// meanContention averages n fresh runs of one contention point.
func meanContention(n int, scale float64, workers int, lockfree bool) (simtime.Duration, error) {
	var sum simtime.Duration
	for i := 0; i < n; i++ {
		el, err := contentionPoint(scale, workers, lockfree)
		if err != nil {
			return 0, err
		}
		sum += el
	}
	return sum / simtime.Duration(n), nil
}

// contentionPoint builds a fresh machine with the given daemon
// worker/shard count and hot-path configuration, warms one shared file,
// and measures the mixed reader/writer kernel.
func contentionPoint(scale float64, workers int, lockfree bool) (simtime.Duration, error) {
	readers := 2 * workers
	writers := workers
	fileBytes := int64(contentionReadBytes) + int64(writers)*contentionWriteBytes

	cfg := gpufs.ScaledConfig(scale)
	cfg.RPCShards = workers
	cfg.DaemonWorkers = workers
	cfg.Prototype = !lockfree
	// Whole file resident on both sides of the bus: misses and host disk
	// seeks would drown the hit-path signal under test.
	if need := fileBytes + 64*cfg.PageSize; cfg.BufferCacheBytes < need {
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

	const path = "/bench/contention/hot.bin"
	if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), path, fileBytes, 9); err != nil {
		return 0, err
	}

	// Warm pass: one block faults the whole file into the buffer cache so
	// the measured kernel's reads are hits and its writes are in-place.
	_, err = sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		for off := int64(0); off < fileBytes; off += contentionChunk {
			if _, err := c.Gread(fd, c.Scratch[:contentionChunk], off); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return 0, err
	}

	sys.ResetTime()
	end, err := sys.GPU(0).Launch(0, readers+writers, 64, func(c *gpufs.BlockCtx) error {
		if c.Idx < readers {
			// Reader: stream the hot region, all cache hits. Opened
			// O_RDWR like the writers: descriptors denote files, so
			// concurrent opens coalesce and their flags must agree.
			fd, err := c.Gopen(path, gpufs.O_RDWR)
			if err != nil {
				return err
			}
			for pass := 0; pass < contentionReadPasses; pass++ {
				for off := int64(0); off < contentionReadBytes; off += contentionChunk {
					if _, err := c.Gread(fd, c.Scratch[:contentionChunk], off); err != nil {
						return err
					}
				}
			}
			return c.Gclose(fd)
		}
		// Writer: dirty a private slice of the same file, then push it
		// through the daemon with gfsync, every pass.
		w := c.Idx - readers
		base := int64(contentionReadBytes) + int64(w)*contentionWriteBytes
		fd, err := c.Gopen(path, gpufs.O_RDWR)
		if err != nil {
			return err
		}
		src := c.Scratch[:contentionChunk]
		for i := range src {
			src[i] = byte(w + i)
		}
		for pass := 0; pass < contentionWritePasses; pass++ {
			for off := int64(0); off < contentionWriteBytes; off += contentionChunk {
				if _, err := c.Gwrite(fd, src, base+off); err != nil {
					return err
				}
			}
			if err := c.Gfsync(fd); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return 0, err
	}
	return simtime.Duration(end), nil
}
