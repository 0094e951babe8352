package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/params"
	"gpufs/internal/workloads"
)

// Readahead quantifies the read-ahead engine against the paper's prototype
// (the "off" column), which has none, across the three access patterns that
// matter to it: sequential streams (speculation coalesces into vectored
// RPCs), fixed-stride scans (the detector follows the stride and skips the
// pages between), and random reads (any speculation is waste; the
// detector's confidence gate keeps it quiet). Cells report effective
// throughput; the prefetch column reports pages speculated and the fraction
// a demand access actually consumed.
func Readahead(scale float64) (*Table, error) {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU
	// A fixed mid-sweep page size: small enough that per-transaction
	// costs matter (where coalescing pays), large enough to stay off
	// Figure 4's degenerate left edge.
	ps := pow2AtMost(base.ScaleBytes(256 << 10))
	if ps < 4<<10 {
		ps = 4 << 10
	}
	const readBytes = 32 << 10
	const stridePages = 4
	// The sequential and strided rows read one page per gread. A longer
	// gread fetches its own later pages as one vectored RPC, which would
	// credit the "off" column with coalescing the engine did not do, and
	// on the strided row would overlap the skipped pages and degenerate
	// into a sequential scan.
	pageRead := int64(readBytes)
	if pageRead > ps {
		pageRead = ps
	}

	t := &Table{
		ID: "Readahead",
		Title: fmt.Sprintf("read-ahead policy vs access pattern (file %s, %s pages, %d threadblocks)",
			sizeLabel(fileBytes), sizeLabel(ps), blocks),
		Header: []string{"pattern", "adaptive MB/s", "off MB/s", "adaptive pf (used%)"},
	}

	type mode struct {
		name string
		tune func(*gpufs.Config)
	}
	modes := []mode{
		{"adaptive", func(cfg *gpufs.Config) {}}, // the defaults
		{"off", func(cfg *gpufs.Config) { cfg.Prototype = true }},
	}

	patterns := []struct {
		name string
		run  func(sys *gpufs.System) (*workloads.MicroResult, error)
	}{
		{"sequential", func(sys *gpufs.System) (*workloads.MicroResult, error) {
			return workloads.SeqReadGPUfsGread(sys, 0, "/bench/ra.bin", fileBytes, blocks, 256, pageRead)
		}},
		{fmt.Sprintf("stride-%d", stridePages), func(sys *gpufs.System) (*workloads.MicroResult, error) {
			return workloads.StrideReadGPUfs(sys, 0, "/bench/ra.bin", fileBytes, blocks, 256, stridePages, pageRead)
		}},
		{"random", func(sys *gpufs.System) (*workloads.MicroResult, error) {
			reads := int(fileBytes / 4 / readBytes / int64(blocks))
			if reads < 2 {
				reads = 2
			}
			return workloads.RandReadGPUfs(sys, 0, "/bench/ra.bin", fileBytes, blocks, 128, reads, readBytes)
		}},
	}

	for _, p := range patterns {
		row := []string{p.name}
		var pf string
		for mi, m := range modes {
			var issued, used int64
			res, err := meanMicro(reps, func() (*workloads.MicroResult, error) {
				cfg := gpufs.ScaledConfig(scale)
				cfg.PageSize = ps
				if need := fileBytes + 16*ps; cfg.BufferCacheBytes < need {
					cfg.BufferCacheBytes = need
				}
				if cfg.GPUMemBytes < 2*cfg.BufferCacheBytes {
					cfg.GPUMemBytes = 2 * cfg.BufferCacheBytes
				}
				m.tune(&cfg)
				sys, err := newSystem(cfg)
				if err != nil {
					return nil, err
				}
				if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/bench/ra.bin", fileBytes, 11); err != nil {
					return nil, err
				}
				sys.ResetTime()
				r, err := p.run(sys)
				if err != nil {
					return nil, err
				}
				cs := sys.GPU(0).FS().CacheStats()
				issued, used = cs.PrefetchIssued, cs.PrefetchUsed
				return r, nil
			})
			if err != nil {
				return nil, fmt.Errorf("readahead %s/%s: %w", p.name, m.name, err)
			}
			row = append(row, mbps(res.Throughput))
			if mi == 0 {
				rate := 0.0
				if issued > 0 {
					rate = 100 * float64(used) / float64(issued)
				}
				pf = fmt.Sprintf("%d (%.0f%%)", issued, rate)
			}
		}
		t.AddRow(append(row, pf)...)
	}
	t.AddNote("adaptive coalesces sequential streams into vectored RPCs, follows fixed strides, and stays quiet on random reads where any fixed window would be pure waste")
	return t, nil
}
