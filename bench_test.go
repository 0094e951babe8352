// Benchmarks regenerating the GPUfs paper's evaluation artifacts (one per
// table and figure of §5) plus library micro-benchmarks. The experiment
// benchmarks report *virtual-time* metrics from the simulation; run
//
//	go test -bench=. -benchmem
//
// for the whole set, or `go run ./cmd/gpufs-bench` for the full formatted
// tables. benchScale trades fidelity for wall-clock time; the shapes hold
// from 1/64 up to full scale.
package gpufs_test

import (
	"strconv"
	"strings"
	"testing"

	"gpufs"
	"gpufs/internal/bench"
	"gpufs/internal/workloads"
)

const benchScale = 1.0 / 64

// cell parses a numeric table cell such as "2248" or "1.08 (2.0x)".
func cell(tb *bench.Table, row, col int) float64 {
	s := tb.Rows[row][col]
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkNewSystem measures building a machine, the setup every
// benchmark rep and test pays: "scaled" is ScaledConfig(1/64) with four
// GPUs whose device memory is three times the buffer cache, "serve" the
// serving workloads' config (32K pages, device memory one MiB past the
// cache).
func BenchmarkNewSystem(b *testing.B) {
	scaled := gpufs.ScaledConfig(benchScale)
	serve := scaled
	serve.PageSize = 32 << 10
	serve.GPUMemBytes = serve.BufferCacheBytes + 1<<20
	for _, arm := range []struct {
		name string
		cfg  gpufs.Config
	}{{"scaled", scaled}, {"serve", serve}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gpufs.NewSystem(arm.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4SequentialRead regenerates Figure 4 (sequential read
// throughput vs page size: GPUfs, CUDA pipeline, whole-file transfer).
func BenchmarkFig4SequentialRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last := len(tb.Rows) - 1
		b.ReportMetric(cell(tb, 0, 1), "gpufs-16K-MB/s")
		b.ReportMetric(cell(tb, last, 1), "gpufs-16M-MB/s")
		b.ReportMetric(cell(tb, last, 2), "pipeline-16M-MB/s")
	}
}

// BenchmarkFig5Breakdown regenerates Figure 5 (cost-component breakdown of
// sequential reads via DMA / host-file-I/O exclusion toggles).
func BenchmarkFig5Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last := len(tb.Rows) - 1
		b.ReportMetric(cell(tb, 0, 4), "pure-cache-code-16K-ms")
		b.ReportMetric(cell(tb, last, 4), "pure-cache-code-16M-ms")
	}
}

// BenchmarkFig6RandomRead regenerates Figure 6 (random 32 KB greads:
// unique pages faulted and effective bandwidth vs page size).
func BenchmarkFig6RandomRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		// Peak effective bandwidth across the sweep, and the large-page
		// floor where unread data dominates.
		var peak float64
		for r := range tb.Rows {
			if v := cell(tb, r, 2); v > peak {
				peak = v
			}
		}
		b.ReportMetric(peak, "peak-effective-MB/s")
		b.ReportMetric(cell(tb, len(tb.Rows)-1, 2), "16M-effective-MB/s")
	}
}

// BenchmarkFig7BufferCache regenerates Figure 7 (in-cache gread bandwidth
// normalized to raw memory access; lock-free vs locked radix traversal).
func BenchmarkFig7BufferCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		mid := len(tb.Rows) / 2
		b.ReportMetric(cell(tb, mid, 1), "lockfree-frac-of-raw")
		b.ReportMetric(cell(tb, mid, 2), "locked-frac-of-raw")
	}
}

// BenchmarkFig8MatVec regenerates Figure 8 (matrix-vector product
// throughput: GPUfs vs naive and optimized CUDA double buffering, up to
// the disk-bound 11.2 GB point).
func BenchmarkFig8MatVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last := len(tb.Rows) - 1
		b.ReportMetric(cell(tb, last, 1), "gpufs-11G-MB/s")
		b.ReportMetric(cell(tb, last, 2), "naive-11G-MB/s")
	}
}

// BenchmarkTable2CacheSize regenerates Table 2 (image search under 2 G /
// 1 G / 0.5 G GPU buffer caches: time, pages reclaimed, lock-free vs
// locked accesses).
func BenchmarkTable2CacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(tb, 0, 2), "reclaimed-at-2G")
		b.ReportMetric(cell(tb, 2, 2), "reclaimed-at-0.5G")
		b.ReportMetric(cell(tb, 2, 1), "time-at-0.5G-s")
	}
}

// BenchmarkTable3MultiGPU regenerates Table 3 (image matching on the
// 8-core CPU versus 1-4 GPUs, no-match and exact-match inputs).
func BenchmarkTable3MultiGPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Table3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		cpu := cell(tb, 0, 1)
		one := cell(tb, 0, 2)
		four := cell(tb, 0, 5)
		if one > 0 {
			b.ReportMetric(cpu/one, "cpu-over-1gpu")
			b.ReportMetric(one/four, "scaling-4gpu")
		}
	}
}

// BenchmarkTable4Grep regenerates Table 4 (exact string match over a
// Linux-source-like tree and a Shakespeare-like file: CPUx8 vs GPUfs vs
// vanilla GPU).
func BenchmarkTable4Grep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Table4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		linuxCPU := cell(tb, 0, 1)
		linuxGPU := cell(tb, 0, 2)
		if linuxGPU > 0 {
			b.ReportMetric(linuxCPU/linuxGPU, "gpu-speedup-linux")
		}
	}
}

// ---- Library micro-benchmarks (real wall-clock, not virtual time) ----

// BenchmarkGreadCacheHit measures the real Go-side cost of the gread fast
// path on resident pages: lock-free radix lookup + frame copy.
func BenchmarkGreadCacheHit(b *testing.B) {
	sys, err := gpufs.NewSystem(gpufs.ScaledConfig(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	const size = 4 << 20
	if err := sys.WriteHostFile("/bench.bin", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	if _, err := workloads.SeqReadGPUfs(sys, 0, "/bench.bin", size, 8, 64); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	b.ResetTimer()
	_, err = sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/bench.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		for i := 0; i < b.N; i++ {
			off := int64(i) % (size - int64(len(buf)))
			if _, err := c.Gread(fd, buf, off); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkGwrite measures the gwrite path into cached pages.
func BenchmarkGwrite(b *testing.B) {
	sys, err := gpufs.NewSystem(gpufs.ScaledConfig(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	b.ResetTimer()
	_, err = sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/w.bin", gpufs.O_GWRONCE)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		span := sys.Config().BufferCacheBytes / 2
		for i := 0; i < b.N; i++ {
			off := (int64(i) * int64(len(buf))) % span
			if _, err := c.Gwrite(fd, buf, off); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkAblation runs the design-choice ablations (read-ahead, DMA
// channel count, closed-table fast reopen) from DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := bench.Ablation(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) != 4 {
			b.Fatalf("ablation rows: %d", len(tb.Rows))
		}
	}
}
