package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/params"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// pageSweep is the x-axis of Figures 4–7.
var pageSweep = []int64{
	16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10,
	1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
}

// reps is how many times each measured configuration runs; cells report
// the mean, mirroring the paper's averaging of 5 executions. SetReps
// adjusts it (the CLI exposes -reps).
var reps = 3

// SetReps sets the number of runs averaged per measured cell.
func SetReps(n int) {
	if n < 1 {
		n = 1
	}
	reps = n
}

// meanMicro averages the elapsed time of n fresh runs and recomputes the
// derived throughput.
func meanMicro(n int, run func() (*workloads.MicroResult, error)) (*workloads.MicroResult, error) {
	var sum simtime.Duration
	var last *workloads.MicroResult
	for i := 0; i < n; i++ {
		res, err := run()
		if err != nil {
			return nil, err
		}
		sum += res.Elapsed
		last = res
	}
	last.Elapsed = sum / simtime.Duration(n)
	if last.Elapsed > 0 {
		last.Throughput = simtime.Rate(float64(last.Bytes) / last.Elapsed.Seconds())
	}
	return last, nil
}

// seqFileBytes returns the Figure 4/5 file size at the given scale: the
// paper's 1.8 GB scaled, rounded up so the largest page size still divides
// the workload sensibly and the file fits the GPU buffer cache we
// provision.
func seqFileBytes(cfg *params.Config) int64 {
	size := cfg.ScaleBytes(1800 << 20)
	const align = 16 << 20
	if size < align {
		size = align
	}
	return (size + align - 1) / align * align
}

// seqSystem builds a System tuned for the sequential-read microbenchmark at
// one page size: the buffer cache is provisioned to hold the whole file, as
// in the paper ("the file data ... fits in the GPU page cache").
func seqSystem(scale float64, pageSize, fileBytes int64) (*gpufs.System, error) {
	cfg := gpufs.ScaledConfig(scale)
	cfg.PageSize = pageSize
	need := fileBytes + 16*pageSize
	if cfg.BufferCacheBytes < need {
		cfg.BufferCacheBytes = need
	}
	// Headroom for the CUDA baselines' device buffers (up to four
	// chunks of the largest page size on the sweep).
	if min := cfg.BufferCacheBytes + fileBytes + 4*(16<<20); cfg.GPUMemBytes < min {
		cfg.GPUMemBytes = min
	}
	return newSystem(cfg)
}

// Fig4 reproduces Figure 4: sequential read throughput versus page size for
// GPUfs (gmmap kernel), the hand-pipelined CUDA implementation using
// same-size chunks, and the whole-file transfer, against the maximum PCIe
// bandwidth reference.
func Fig4(scale float64) (*Table, error) {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU

	t := &Table{
		ID:     "Figure 4",
		Title:  fmt.Sprintf("sequential read throughput vs page size (file %s, %d threadblocks)", sizeLabel(fileBytes), blocks),
		Header: []string{"page", "GPUfs MB/s", "CUDA pipeline MB/s"},
	}

	for _, ps := range pageSweep {
		ps := ps
		gp, err := meanMicro(reps, func() (*workloads.MicroResult, error) {
			sys, err := seqSystem(scale, ps, fileBytes)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/seq.bin", fileBytes, 4); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.SeqReadGPUfs(sys, 0, "/bench/seq.bin", fileBytes, blocks, 256)
		})
		if err != nil {
			return nil, fmt.Errorf("fig4: GPUfs at page %s: %w", sizeLabel(ps), err)
		}
		pipe, err := meanMicro(reps, func() (*workloads.MicroResult, error) {
			sys, err := seqSystem(scale, ps, fileBytes)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/seq.bin", fileBytes, 4); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.SeqReadCUDAPipeline(sys, 1, "/bench/seq.bin", fileBytes, ps)
		})
		if err != nil {
			return nil, fmt.Errorf("fig4: pipeline at chunk %s: %w", sizeLabel(ps), err)
		}
		t.AddRow(sizeLabel(ps), mbps(gp.Throughput), mbps(pipe.Throughput))
	}

	sys, err := seqSystem(scale, 256<<10, fileBytes)
	if err != nil {
		return nil, err
	}
	if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/seq.bin", fileBytes, 4); err != nil {
		return nil, err
	}
	sys.ResetTime()
	whole, err := workloads.SeqReadWholeFile(sys, 0, "/bench/seq.bin", fileBytes)
	if err != nil {
		return nil, err
	}
	t.AddNote("whole file transfer: %s MB/s (paper: 2100 MB/s)", mbps(whole.Throughput))
	t.AddNote("maximum PCIe bandwidth: %s MB/s (paper: 5731 MB/s)", mbps(base.PCIeBandwidth))
	t.AddNote("paper shape: GPUfs overtakes whole-file reads at >=64K pages and lands within ~5%% of the pipeline at large pages")
	return t, nil
}

// Fig5 reproduces Figure 5: the contribution of each cost component to
// sequential-read time, by excluding PCIe DMA, host file I/O, or both. The
// remainder with both excluded is pure GPUfs buffer-cache code, which
// shrinks proportionally to page size.
func Fig5(scale float64) (*Table, error) {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU

	type combo struct {
		name            string
		exclDMA, exclIO bool
	}
	combos := []combo{
		{"total", false, false},
		{"-DMA", true, false},
		{"-fileIO", false, true},
		{"-both", true, true},
	}

	t := &Table{
		ID:     "Figure 5",
		Title:  fmt.Sprintf("sequential read time breakdown vs page size (file %s, ms)", sizeLabel(fileBytes)),
		Header: []string{"page", "total", "CPU DMA excluded", "CPU file I/O excluded", "both excluded"},
	}

	for _, ps := range pageSweep {
		row := []string{sizeLabel(ps)}
		for _, cb := range combos {
			sys, err := seqSystem(scale, ps, fileBytes)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/seq.bin", fileBytes, 4); err != nil {
				return nil, err
			}
			sys.ResetTime()
			sys.Bus().SetExcludeDMA(cb.exclDMA)
			sys.Host().SetTimingFree(cb.exclIO)
			res, err := workloads.SeqReadGPUfs(sys, 0, "/bench/seq.bin", fileBytes, blocks, 256)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s at %s: %w", cb.name, sizeLabel(ps), err)
			}
			row = append(row, msec(res.Elapsed))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: the both-excluded column (pure page-cache code) halves with each doubling of page size (792ms at 16K down to 2ms at 16M, at full scale)")
	return t, nil
}

// Fig6 reproduces Figure 6: random 32 KB greads from a 1 GB file — unique
// pages faulted and effective bandwidth versus page size. Small pages fail
// to amortize transfer costs; large pages fetch data the application never
// reads.
func Fig6(scale float64) (*Table, error) {
	base := params.Scaled(scale)
	// Preserve the paper's payload-to-file ratio (112 MB of reads from a
	// 1 GB file): too small a file would turn random reads into buffer
	// cache hits and hide the unused-data cost of large pages.
	fileBytes := base.ScaleBytes(1 << 30)
	const minFile = 128 << 20
	if fileBytes < minFile {
		fileBytes = minFile
	}
	const align = 16 << 20
	fileBytes = (fileBytes + align - 1) / align * align
	blocks := 8 * base.MPsPerGPU
	const readBytes = 32 << 10
	totalReads := int(float64(fileBytes) / float64(1<<30) * 3584)
	readsPerBlock := totalReads / blocks
	if readsPerBlock < 2 {
		readsPerBlock = 2
	}

	t := &Table{
		ID: "Figure 6",
		Title: fmt.Sprintf("random read: %d blocks x %d reads of %s from a %s file",
			blocks, readsPerBlock, sizeLabel(readBytes), sizeLabel(fileBytes)),
		Header: []string{"page", "unique pages", "effective MB/s"},
	}

	for _, ps := range pageSweep {
		ps := ps
		res, err := meanMicro(reps, func() (*workloads.MicroResult, error) {
			sys, err := seqSystem(scale, ps, fileBytes)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/rand.bin", fileBytes, 5); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.RandReadGPUfs(sys, 0, "/bench/rand.bin", fileBytes, blocks, 128, readsPerBlock, readBytes)
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 at page %s: %w", sizeLabel(ps), err)
		}
		t.AddRow(sizeLabel(ps), fmt.Sprintf("%d", res.UniquePages), mbps(res.Throughput))
	}
	t.AddNote("paper shape: throughput peaks at a mid page size (64K on their testbed) — small pages fail to amortize transfers, large pages move unread data")
	return t, nil
}

// Fig7 reproduces Figure 7: in-buffer-cache gread bandwidth relative to raw
// device-memory access, with the default lock-free radix traversal and with
// traversal forced to take the tree lock. Both arms run the paper's
// prototype, whose gread copies the page like the raw baseline does.
func Fig7(scale float64) (*Table, error) {
	k := newFig7Kernel(scale)
	t := &Table{
		ID: "Figure 7",
		Title: fmt.Sprintf("buffer cache hit bandwidth, normalized to raw memory access (%d blocks x %s in %s chunks)",
			k.blocks, sizeLabel(k.perBlock), sizeLabel(fig7Chunk)),
		Header: []string{"page", "lock-free (frac of raw)", "locked (frac of raw)"},
	}

	raw, err := meanMicro(reps, k.raw)
	if err != nil {
		return nil, err
	}
	for _, ps := range pageSweep {
		ps := ps
		free, err := meanMicro(reps, func() (*workloads.MicroResult, error) { return k.hit(ps, false) })
		if err != nil {
			return nil, fmt.Errorf("fig7 lock-free at %s: %w", sizeLabel(ps), err)
		}
		locked, err := meanMicro(reps, func() (*workloads.MicroResult, error) { return k.hit(ps, true) })
		if err != nil {
			return nil, fmt.Errorf("fig7 locked at %s: %w", sizeLabel(ps), err)
		}
		t.AddRow(sizeLabel(ps),
			fmt.Sprintf("%.2f", float64(raw.Elapsed)/float64(free.Elapsed)),
			fmt.Sprintf("%.2f", float64(raw.Elapsed)/float64(locked.Elapsed)))
	}
	t.AddNote("raw memory access time: %v for %s per block", simtime.Duration(raw.Elapsed), sizeLabel(k.perBlock))
	t.AddNote("paper shape: lock-free achieves 85-88%% of raw bandwidth at >=128K pages and runs ~3x faster than the locked protocol")
	return t, nil
}

// fig7Chunk is the size of one Figure 7 gread.
const fig7Chunk = 16 << 10

// fig7Kernel is Figure 7's measurement at one scale: blocks threadblocks each
// read perBlock bytes in fig7Chunk pieces out of a fileBytes file.
type fig7Kernel struct {
	scale     float64
	blocks    int
	perBlock  int64
	fileBytes int64
}

func newFig7Kernel(scale float64) fig7Kernel {
	base := params.Scaled(scale)
	perBlock := base.ScaleBytes(64 << 20)
	perBlock = (perBlock + fig7Chunk - 1) / fig7Chunk * fig7Chunk

	// The file must be fully cache-resident.
	fileBytes := base.BufferCacheBytes / 2
	const align = 4 << 20
	fileBytes = fileBytes / align * align
	if fileBytes < align {
		fileBytes = align
	}
	return fig7Kernel{scale: scale, blocks: 8 * base.MPsPerGPU, perBlock: perBlock, fileBytes: fileBytes}
}

// hit warms a fresh prototype machine's buffer cache with the whole file at
// page size ps and measures the cache-hit kernel on it.
func (k fig7Kernel) hit(ps int64, forceLocked bool) (*workloads.MicroResult, error) {
	cfg := gpufs.ScaledConfig(k.scale)
	cfg.PageSize = ps
	cfg.Prototype = true // the paper's gread copies out of the cache
	cfg.ForceLockedTraversal = forceLocked
	if cfg.BufferCacheBytes < k.fileBytes+16*ps {
		cfg.BufferCacheBytes = k.fileBytes + 16*ps
	}
	if cfg.GPUMemBytes < cfg.BufferCacheBytes+k.fileBytes {
		cfg.GPUMemBytes = cfg.BufferCacheBytes + k.fileBytes
	}
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/hit.bin", k.fileBytes, 6); err != nil {
		return nil, err
	}
	if _, err := workloads.SeqReadGPUfs(sys, 0, "/bench/hit.bin", k.fileBytes, k.blocks, 128); err != nil {
		return nil, err
	}
	sys.ResetTime()
	return workloads.CacheHitGPUfs(sys, 0, "/bench/hit.bin", k.fileBytes, k.blocks, 128, k.perBlock, fig7Chunk)
}

// raw measures the same access pattern straight out of device memory; it is
// independent of page size.
func (k fig7Kernel) raw() (*workloads.MicroResult, error) {
	sys, err := newSystem(params.Scaled(k.scale))
	if err != nil {
		return nil, err
	}
	return workloads.CacheHitRaw(sys, 0, k.fileBytes, k.blocks, 128, k.perBlock, fig7Chunk)
}
