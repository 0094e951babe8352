package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/params"
	"gpufs/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//  1. The number of asynchronous DMA channels per direction (§4.3 uses
//     "multiple" channels to overlap transfers with disk access).
//  2. The closed-file-table fast reopen (§4.1): reopening files that a
//     GPU already caches without any CPU communication, priced on a
//     gopen/gclose-heavy many-small-files workload.
//
// Read-ahead has its own experiment (Readahead).
func Ablation(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Ablation",
		Title:  "design-choice ablations (virtual time; lower is better unless noted)",
		Header: []string{"experiment", "baseline", "variant", "effect"},
	}

	if err := ablateDMAChannels(scale, t); err != nil {
		return nil, err
	}
	if err := ablateFastReopen(scale, t); err != nil {
		return nil, err
	}
	return t, nil
}

func ablateDMAChannels(scale float64, t *Table) error {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU

	// Small pages make per-transfer latency visible: that is where the
	// channel count matters (at large pages the host memory bus is the
	// bottleneck and extra channels buy nothing).
	run := func(channels int) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			cfg := gpufs.ScaledConfig(scale)
			cfg.PageSize = 16 << 10
			cfg.DMAChannels = channels
			if cfg.BufferCacheBytes < fileBytes+16*cfg.PageSize {
				cfg.BufferCacheBytes = fileBytes + 16*cfg.PageSize
			}
			if cfg.GPUMemBytes < cfg.BufferCacheBytes+fileBytes {
				cfg.GPUMemBytes = cfg.BufferCacheBytes + fileBytes
			}
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/abl/dma.bin", fileBytes, 23); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.SeqReadGPUfs(sys, 0, "/abl/dma.bin", fileBytes, blocks, 256)
		})
	}
	one, err := run(1)
	if err != nil {
		return fmt.Errorf("ablation dma=1: %w", err)
	}
	four, err := run(4)
	if err != nil {
		return fmt.Errorf("ablation dma=4: %w", err)
	}
	t.AddRow("DMA channels, sequential read (16K pages)",
		fmt.Sprintf("1 channel: %s MB/s", mbps(one.Throughput)),
		fmt.Sprintf("4 channels: %s MB/s", mbps(four.Throughput)),
		fmt.Sprintf("%+.0f%%", 100*(float64(four.Throughput)/float64(one.Throughput)-1)))
	return nil
}

func ablateFastReopen(scale float64, t *Table) error {
	base := params.Scaled(scale)
	blocks := 2 * base.MPsPerGPU
	const nFiles = 96
	const rounds = 4

	run := func(disable bool) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			cfg := gpufs.ScaledConfig(scale)
			cfg.DisableFastReopen = disable
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			files := make([]string, nFiles)
			for i := range files {
				files[i] = fmt.Sprintf("/abl/files/f%03d", i)
				if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), files[i], 8<<10, int64(30+i)); err != nil {
					return nil, err
				}
			}
			sys.ResetTime()
			return workloads.ReopenStorm(sys, 0, files, blocks, 128, rounds)
		})
	}
	fast, err := run(false)
	if err != nil {
		return fmt.Errorf("ablation reopen fast: %w", err)
	}
	slow, err := run(true)
	if err != nil {
		return fmt.Errorf("ablation reopen slow: %w", err)
	}
	t.AddRow(fmt.Sprintf("closed-table fast reopen (%d files x %d rounds)", nFiles, rounds),
		fmt.Sprintf("with: %s", msec(fast.Elapsed)+"ms"),
		fmt.Sprintf("without: %s", msec(slow.Elapsed)+"ms"),
		fmt.Sprintf("%.1fx slower without", float64(slow.Elapsed)/float64(fast.Elapsed)))
	return nil
}
