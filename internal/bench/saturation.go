package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/workloads"
)

// Saturation is the ISSUE 9 open-loop capacity experiment: a Poisson
// arrival process over thousands of tenants sweeps offered load across
// the serving stack's knee, reporting the achieved jobs/s and the
// p50/p99/p999 virtual latency (from the metrics layer's
// gpufs_serve_job_latency_seconds histograms) at each point. Unlike the
// closed-loop Serve experiment — whose tenants wait for completions, so
// offered load self-throttles — an open loop keeps submitting on
// schedule, which is what exposes the max sustainable rate: below the
// knee latency is flat, at the knee queueing delay takes off, beyond it
// admission control sheds load.
//
// A point is "sustainable" when achieved throughput kept within 90% of
// the offered rate with at most 5% of arrivals shed (the 10% slack
// absorbs the drain tail: the span includes the last admitted job's
// completion, which trails the arrival horizon by a few service times
// even far below capacity). The final "max" row repeats the fastest
// sustainable point — the headline max sustainable jobs/s the BENCH
// guardrail pins.

// satCase fixes the workload shape: a cache-resident corpus of small
// files (the quantity under test is the serving stack — admission,
// placement, batching, kernel dispatch — not paging), a tenant population
// in the thousands at full scale, and one search kernel per job.
type satCase struct {
	numGPUs   int
	files     int
	pagesEach int64
	tenants   int
	jobs      int // arrivals per sweep point
	depth     int
}

func defaultSatCase(cfg *gpufs.Config) satCase {
	tenants := cfg.ScaleCount(65536)
	return satCase{
		numGPUs:   2,
		files:     16,
		pagesEach: 2,
		tenants:   tenants,
		jobs:      2 * tenants,
		depth:     8,
	}
}

// satPoint is one measured sweep point.
type satPoint struct {
	offered float64 // jobs per virtual second
	res     serve.OpenLoopResult
	p50ms   float64
	p99ms   float64
	p999ms  float64
}

// sustainable reports whether the point kept up with its offered load.
func (p satPoint) sustainable() bool {
	if p.res.Offered == 0 {
		return false
	}
	shed := float64(p.res.Rejected) / float64(p.res.Offered)
	return p.res.AchievedRate() >= 0.90*p.offered && shed <= 0.05
}

// saturationPoint builds a fresh machine with its own metrics registry,
// loads the corpus, and drives one open-loop run at the given rate.
func saturationPoint(scale float64, rate float64, seed int64) (satPoint, error) {
	pt := satPoint{offered: rate}

	cfg := gpufs.ScaledConfig(scale)
	sc := defaultSatCase(&cfg)
	cfg.NumGPUs = sc.numGPUs
	// Whole corpus resident per GPU with slack: the sweep measures the
	// serving stack, not eviction.
	if need := (int64(sc.files)*sc.pagesEach + 16) * cfg.PageSize; cfg.BufferCacheBytes < need {
		cfg.BufferCacheBytes = need
	}
	if cfg.GPUMemBytes < 2*cfg.BufferCacheBytes {
		cfg.GPUMemBytes = 2 * cfg.BufferCacheBytes
	}
	// A private registry per point: the latency histograms must describe
	// this offered load alone, not the sweep's accumulation (the shared
	// benchReg, when attached, keeps aggregating counters system-wide).
	reg := metrics.New()
	sys, err := gpufs.NewSystemWithMetrics(cfg, reg)
	if err != nil {
		return pt, err
	}

	dict := workloads.MakeDictionary(200)
	paths := make([]string, sc.files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/satbench/f%03d.txt", i)
		text := workloads.MakeText(sc.pagesEach*cfg.PageSize, workloads.TextSpec{
			Dict: dict, DictFraction: 0.8, Seed: int64(7000 + i),
		})
		if err := sys.WriteHostFile(paths[i], text); err != nil {
			return pt, err
		}
	}

	srv := serve.New(sys, serve.Config{
		Policy:     serve.PlaceAffinity,
		MaxBatch:   16,
		QueueDepth: sc.depth,
	})
	res, err := serve.RunOpenLoop(srv, serve.OpenLoopConfig{
		Jobs: sc.jobs,
		Rate: rate,
		Seed: seed,
		Job: func(i int) (string, serve.Job) {
			// Tenant and file derive from the arrival index via fixed
			// mixing, so a sweep's points sample the same population.
			tenant := fmt.Sprintf("t%05d", i%sc.tenants)
			path := paths[(i*2654435761)%sc.files]
			return tenant, serve.Job{Kind: serve.JobSearch, Path: path, Word: "th"}
		},
	})
	if err != nil {
		return pt, err
	}
	srv.Drain()
	pt.res = res
	p50, _ := reg.Quantile("gpufs_serve_job_latency_seconds", 0.50)
	p99, _ := reg.Quantile("gpufs_serve_job_latency_seconds", 0.99)
	p999, _ := reg.Quantile("gpufs_serve_job_latency_seconds", 0.999)
	pt.p50ms, pt.p99ms, pt.p999ms = p50*1e3, p99*1e3, p999*1e3
	return pt, nil
}

// saturationCapacity probes the machine's service capacity: an effectively
// infinite arrival rate turns the open loop into a backlogged batch run,
// and completions over the makespan are the ceiling the sweep brackets.
func saturationCapacity(scale float64) (float64, error) {
	pt, err := saturationPoint(scale, 1e9, 1)
	if err != nil {
		return 0, err
	}
	cap := pt.res.AchievedRate()
	if cap <= 0 {
		return 0, fmt.Errorf("saturation capacity probe completed nothing")
	}
	return cap, nil
}

// saturationFracs are the offered loads swept, as fractions of the probed
// capacity: two comfortably under the knee, one at it, and three past it.
// With launches overlapping, a backlogged device is a full one, so the
// probe reads what the machine can do and the knee sits at about 1x:
// points past it plateau at the probe's rate while their latency grows.
// The sweep extends past the knee so that the "max" row is a measured
// saturation point, not the sweep's edge.
var saturationFracs = []float64{0.5, 0.75, 1.0, 1.25, 1.5, 2.0}

// Saturation runs the open-loop sweep and emits the table.
func Saturation(scale float64) (*Table, error) {
	cfg := gpufs.ScaledConfig(scale)
	sc := defaultSatCase(&cfg)
	t := &Table{
		ID: "Saturation",
		Title: fmt.Sprintf("open-loop saturation: Poisson arrivals over %d tenants, %d jobs/point, %d GPUs",
			sc.tenants, sc.jobs, sc.numGPUs),
		Header: []string{"load", "offered jobs/s", "achieved jobs/s", "shed", "p50 ms", "p99 ms", "p999 ms"},
	}

	capacity, err := saturationCapacity(scale)
	if err != nil {
		return nil, fmt.Errorf("saturation capacity probe: %w", err)
	}

	var best satPoint
	haveBest := false
	points := make([]satPoint, 0, len(saturationFracs))
	for i, frac := range saturationFracs {
		pt, err := saturationPoint(scale, frac*capacity, int64(100+i))
		if err != nil {
			return nil, fmt.Errorf("saturation at %.2fx capacity: %w", frac, err)
		}
		points = append(points, pt)
		mark := ""
		if pt.sustainable() {
			mark = " *"
			if !haveBest || pt.offered > best.offered {
				best, haveBest = pt, true
			}
		}
		t.AddRow(append([]string{fmt.Sprintf("%.2fx%s", frac, mark)}, satCells(pt)...)...)
	}
	if !haveBest {
		// Every point missed the bar (possible at tiny smoke scales where
		// the drain tail dominates short runs): report the highest achieved
		// point rather than failing the whole sweep.
		for _, pt := range points {
			if !haveBest || pt.res.AchievedRate() > best.res.AchievedRate() {
				best, haveBest = pt, true
			}
		}
		t.AddNote("no swept point met the sustainability bar; max row shows the highest achieved point")
	}
	t.AddRow(append([]string{"max"}, satCells(best)...)...)
	t.AddNote("open loop: Poisson virtual-time arrivals submitted on schedule; rejected jobs are shed, not retried")
	t.AddNote("* sustainable: achieved ≥ 90%% of offered with ≤ 5%% shed; the max row repeats the fastest such point")
	t.AddNote("capacity probe (backlogged run) measured %.0f jobs/s; latency percentiles from gpufs_serve_job_latency_seconds", capacity)
	return t, nil
}

// satCells renders one point's table cells.
func satCells(pt satPoint) []string {
	return []string{
		fmt.Sprintf("%.0f", pt.offered),
		fmt.Sprintf("%.0f", pt.res.AchievedRate()),
		fmt.Sprintf("%d/%d", pt.res.Rejected, pt.res.Offered),
		fmt.Sprintf("%.3f", pt.p50ms),
		fmt.Sprintf("%.3f", pt.p99ms),
		fmt.Sprintf("%.3f", pt.p999ms),
	}
}
