package metrics_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpufs"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/simtime/simtest"
)

// metricsWorkload runs a fixed multi-GPU read/write/sync workload and
// returns the virtual completion time of every launch plus each GPU's
// final counters — everything that would betray a timing perturbation.
func metricsWorkload(t *testing.T, sys *gpufs.System) (ends []gpufs.Time, stats []gpufs.Stats) {
	t.Helper()
	content := make([]byte, 256<<10)
	for i := range content {
		content[i] = byte(i * 13)
	}
	if err := sys.WriteHostFile("/mtest/in.bin", content); err != nil {
		t.Fatal(err)
	}

	// Phase 1: both GPUs read the file concurrently.
	for g := 0; g < sys.NumGPUs(); g++ {
		end, err := sys.GPU(g).Launch(0, 4, 64, func(c *gpufs.BlockCtx) error {
			fd, err := c.Gopen("/mtest/in.bin", gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			defer c.Gclose(fd)
			buf := make([]byte, len(content)/c.Blocks)
			off := int64(c.Idx * len(buf))
			_, err = c.Gread(fd, buf, off)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}

	// Phase 2: GPU 0 writes and synchronizes, exercising the write-back path.
	end, err := sys.GPU(0).Launch(0, 2, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/mtest/out.bin", gpufs.O_GWRONCE)
		if err != nil {
			return err
		}
		chunk := make([]byte, 32<<10)
		for i := range chunk {
			chunk[i] = byte(c.Idx)
		}
		if _, err := c.Gwrite(fd, chunk, int64(c.Idx*len(chunk))); err != nil {
			return err
		}
		if err := c.Gfsync(fd); err != nil {
			return err
		}
		return c.Gclose(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	ends = append(ends, end)

	// Phase 3: GPU 1 re-reads after the sync (close-to-open revalidation).
	end, err = sys.GPU(1).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/mtest/out.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 4<<10)
		_, err = c.Gread(fd, buf, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ends = append(ends, end)

	for g := 0; g < sys.NumGPUs(); g++ {
		stats = append(stats, sys.GPU(g).Stats())
	}
	return ends, stats
}

// TestMetricsDisabledBitIdentical asserts that a system built without a
// registry reproduces the metrics-on run bit-for-bit: metrics
// are observation-only, so enabling them must not move a single virtual
// timestamp or counter.
func TestMetricsDisabledBitIdentical(t *testing.T) {
	// Two multi-block virtual timelines are compared tick for tick.
	simtest.OneP(t)

	cfg := gpufs.ScaledConfig(1.0 / 128)
	cfg.NumGPUs = 2
	off, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics() != nil {
		t.Fatal("NewSystem but a registry is attached")
	}
	on, err := gpufs.NewSystemWithMetrics(cfg, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics() == nil {
		t.Fatal("NewSystemWithMetrics but System.Metrics() is nil")
	}

	endsOff, statsOff := metricsWorkload(t, off)
	endsOn, statsOn := metricsWorkload(t, on)

	for i := range endsOff {
		if endsOff[i] != endsOn[i] {
			t.Errorf("launch %d: virtual end time %v with metrics off, %v with metrics on",
				i, endsOff[i], endsOn[i])
		}
	}
	for g := range statsOff {
		if statsOff[g] != statsOn[g] {
			t.Errorf("gpu%d: stats diverge with metrics on:\n  off: %+v\n  on:  %+v",
				g, statsOff[g], statsOn[g])
		}
	}
}

// TestPrometheusExportCoverage runs a workload that crosses all four
// instrumented subsystems (core, rpc, pcie, serve) and asserts that the
// Prometheus exposition parses under the strict parser and contains
// populated families from each.
func TestPrometheusExportCoverage(t *testing.T) {
	cfg := gpufs.ScaledConfig(1.0 / 128)
	cfg.NumGPUs = 2
	sys, err := gpufs.NewSystemWithMetrics(cfg, metrics.New())
	if err != nil {
		t.Fatal(err)
	}

	text := strings.Repeat("needle in a haystack of words ", 2000)
	for i := 0; i < 4; i++ {
		if err := sys.WriteHostFile(fmt.Sprintf("/corpus/f%d.txt", i), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}

	srv := serve.New(sys, serve.Config{QueueDepth: 8, MaxBatch: 4, Policy: serve.PlaceAffinity})
	var futs []*serve.Future
	for i := 0; i < 16; i++ {
		fut, err := srv.Submit(fmt.Sprintf("tenant-%d", i%2), serve.Job{
			Kind: serve.JobGrep,
			Path: fmt.Sprintf("/corpus/f%d.txt", i%4),
			Word: "needle",
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			t.Fatalf("job failed: %v", res.Err)
		}
	}
	srv.Drain()

	var buf bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := metrics.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse of exposition failed: %v\n%s", err, buf.String())
	}

	// Every subsystem must contribute at least one populated family, and
	// the headline family of each must be present by exact name.
	for _, name := range []string{
		"gpufs_core_op_seconds",
		"gpufs_core_cache_hits_total",
		"gpufs_core_open_filled_pages_total",
		"gpufs_core_spec_reclaimed_pages_total",
		"gpufs_rpc_service_time_seconds",
		"gpufs_rpc_requests_total",
		"gpufs_pcie_bytes_total",
		"gpufs_pcie_latency_seconds",
		"gpufs_serve_admitted_total",
		"gpufs_serve_job_latency_seconds",
	} {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("exposition missing family %s", name)
			continue
		}
		if len(fam.Samples) == 0 {
			t.Errorf("family %s present but empty", name)
		}
	}
	// Each corpus file fits one buffer-cache page, so its first gopen on a GPU
	// carries it (and says so: the family has a help text).
	if fam := fams["gpufs_core_open_filled_pages_total"]; fam != nil {
		var filled float64
		for _, s := range fam.Samples {
			filled += s.Value
		}
		if filled == 0 || fam.Help == "" {
			t.Errorf("gpufs_core_open_filled_pages_total sums to %v with help %q; want the carried corpus pages and a help text", filled, fam.Help)
		}
	}
	// No stream here confirms a stride, so the family reads zero; it must still
	// say what it counts.
	if fam := fams["gpufs_core_spec_reclaimed_pages_total"]; fam != nil && fam.Help == "" {
		t.Error("gpufs_core_spec_reclaimed_pages_total has no help text")
	}
	counts := map[string]int{}
	for name := range fams {
		for _, sub := range []string{"core", "rpc", "pcie", "serve"} {
			if strings.HasPrefix(name, "gpufs_"+sub+"_") {
				counts[sub]++
			}
		}
	}
	for _, sub := range []string{"core", "rpc", "pcie", "serve"} {
		if counts[sub] < 2 {
			t.Errorf("subsystem %s exports only %d families", sub, counts[sub])
		}
	}

	// NDJSON must also serialize without error.
	var nd bytes.Buffer
	if err := sys.Metrics().WriteNDJSON(&nd); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if nd.Len() == 0 {
		t.Fatal("NDJSON export is empty")
	}
}
