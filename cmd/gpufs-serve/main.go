// Command gpufs-serve soaks the multi-tenant serving frontend
// (internal/serve) with a closed-loop workload: N tenants each keep M
// jobs outstanding against a simulated multi-GPU machine, and the run
// reports virtual-time throughput, latency percentiles, batching factor,
// and cache-affinity hit rates.
//
// Usage:
//
//	gpufs-serve [-hosts 1] [-tenants 8] [-outstanding 8] [-jobs 125]
//	            [-gpus 2] [-files 16] [-batch 16] [-policy affinity|rr]
//	            [-scale 0.00390625] [-seed 1] [-faults]
//	            [-metrics -|PATH] [-metrics-ndjson -|PATH]
//
// -metrics enables the virtual-time metrics registry and writes a
// Prometheus text exposition to PATH at exit ("-" for stdout), along with
// an end-of-run summary table; -metrics-ndjson additionally (or instead)
// writes one JSON object per series.
//
// -hosts N with N > 1 switches to fleet mode (see fleet.go): the same
// workload runs against an internal/fleet control plane over N simulated
// hosts, a fatal XID is injected mid-run, and the run demonstrates
// cordon/drain/replace remediation with zero admitted jobs lost.
//
// -migrate (fleet mode only) turns the middle phase into a live-migration
// demo: host 0 is cordoned for planned maintenance, checkpointed while
// its in-flight batches finish, and the image is restored onto its
// replacement, which enters rotation warm. The run exits non-zero unless
// the migration happened, no admitted job was lost, and at least 80% of
// the jobs in flight at cordon time completed without resubmission.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"gpufs"
	"gpufs/internal/fleet"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/workloads"
)

func main() {
	hosts := flag.Int("hosts", 1, "serving hosts; > 1 runs the fleet-mode remediation demo")
	tenants := flag.Int("tenants", 8, "number of concurrent tenants")
	outstanding := flag.Int("outstanding", 8, "closed-loop jobs in flight per tenant")
	jobs := flag.Int("jobs", 125, "jobs per tenant")
	gpus := flag.Int("gpus", 2, "GPUs in the simulated machine")
	files := flag.Int("files", 16, "corpus files")
	batch := flag.Int("batch", 16, "max jobs coalesced per kernel launch")
	policy := flag.String("policy", "affinity", "placement policy: affinity or rr")
	scale := flag.Float64("scale", 1.0/256, "uniform scale factor for capacities")
	seed := flag.Int64("seed", 1, "workload seed")
	faults := flag.Bool("faults", false, "inject the standard RPC/host fault mix")
	migrate := flag.Bool("migrate", false, "fleet mode: live-migration demo — strike host 0 with a planned cordon (checkpointed, restored warm) instead of a fatal XID (replaced cold)")
	metricsOut := flag.String("metrics", "", `write a Prometheus text exposition to this path at exit ("-" = stdout)`)
	metricsNDJSON := flag.String("metrics-ndjson", "", `write metrics as NDJSON (one object per series) to this path at exit ("-" = stdout)`)
	flag.Parse()

	switch {
	case *hosts < 1:
		usageError("-hosts must be >= 1, got %d", *hosts)
	case *tenants < 1:
		usageError("-tenants must be >= 1, got %d", *tenants)
	case *outstanding < 1:
		usageError("-outstanding must be >= 1, got %d", *outstanding)
	case *jobs < 1:
		usageError("-jobs must be >= 1, got %d", *jobs)
	case *gpus < 1:
		usageError("-gpus must be >= 1, got %d", *gpus)
	case *files < 1:
		usageError("-files must be >= 1, got %d", *files)
	case *batch < 1:
		usageError("-batch must be >= 1, got %d", *batch)
	case *scale <= 0:
		usageError("-scale must be > 0, got %g", *scale)
	}
	var pol serve.Policy
	switch *policy {
	case "affinity":
		pol = serve.PlaceAffinity
	case "rr":
		pol = serve.PlaceRoundRobin
	default:
		usageError("-policy must be affinity or rr, got %q", *policy)
	}

	if *migrate && *hosts < 2 {
		usageError("-migrate needs fleet mode (-hosts >= 2), got -hosts %d", *hosts)
	}
	var reg *metrics.Registry
	if *metricsOut != "" || *metricsNDJSON != "" {
		reg = metrics.New()
	}
	if *hosts > 1 {
		runFleet(fleetParams{
			hosts: *hosts, tenants: *tenants, outstanding: *outstanding,
			jobs: *jobs, gpus: *gpus, files: *files, batch: *batch,
			pol: pol, scale: *scale, seed: *seed, faults: *faults,
			migrate: *migrate,
			reg:     reg, metricsOut: *metricsOut, metricsNDJSON: *metricsNDJSON,
		})
		return
	}

	cfg := gpufs.ScaledConfig(*scale)
	cfg.NumGPUs = *gpus
	sys, err := gpufs.NewSystemWithMetrics(cfg, reg)
	if err != nil {
		fatal(err)
	}

	paths, texts, words := makeCorpus(*files, *seed)
	for i, path := range paths {
		if err := sys.WriteHostFile(path, texts[i]); err != nil {
			fatal(err)
		}
	}
	if *faults {
		sys.EnableFaults(faultMix(*seed))
	}

	srv := serve.New(sys, serve.Config{
		QueueDepth: *outstanding,
		MaxBatch:   *batch,
		Policy:     pol,
	})

	total := *tenants * *jobs
	fmt.Printf("gpufs-serve: %d tenants × %d jobs (%d outstanding each) over %d GPU(s), policy %v, batch %d, faults %v\n",
		*tenants, *jobs, *outstanding, *gpus, pol, *batch, *faults)

	_, failures := closedLoop(*tenants, *outstanding, *jobs, paths, words,
		func(ti int) int64 { return *seed*100 + int64(ti) },
		func(tenant string, job serve.Job) (func() error, error) {
			fut, err := srv.Submit(tenant, job)
			if err != nil {
				return nil, err
			}
			return func() error { return fut.Wait().Err }, nil
		})
	srv.Drain()

	st := srv.Stats()
	fmt.Println()
	fmt.Print(st)
	if secs := st.Now.Seconds(); secs > 0 {
		fmt.Printf("throughput: %.0f jobs/s virtual (%d jobs in %.3fs)\n",
			float64(total)/secs, total, secs)
	}
	if failures > 0 {
		fmt.Printf("%d job(s) failed with explicit errors\n", failures)
	}
	reportMetrics(reg, *metricsOut, *metricsNDJSON)
}

// makeCorpus builds the deterministic corpus both modes serve: files texts
// under /serve and the words the jobs look for.
func makeCorpus(files int, seed int64) (paths []string, texts [][]byte, words []string) {
	dict := workloads.MakeDictionary(300)
	paths = make([]string, files)
	texts = make([][]byte, files)
	words = make([]string, 8)
	for i := range words {
		words[i] = workloads.MakeWord(i * 13)
	}
	for i := range paths {
		paths[i] = fmt.Sprintf("/serve/f%03d.txt", i)
		texts[i] = workloads.MakeText(8<<10, workloads.TextSpec{
			Dict: dict, DictFraction: 0.8, Seed: seed*1000 + int64(i),
		})
	}
	return paths, texts, words
}

// faultMix is the standard background RPC/host fault mix of -faults.
func faultMix(seed int64) gpufs.FaultConfig {
	return gpufs.FaultConfig{
		Seed:                seed,
		RPCPollDelayProb:    0.05,
		RPCDropResponseProb: 0.02,
		RPCTransientProb:    0.05,
		HostShortReadProb:   0.05,
		HostReadEIOProb:     0.02,
		DiskStallProb:       0.05,
		DMAStallProb:        0.05,
	}
}

// closedLoop drives one closed-loop traffic run: every tenant keeps
// outstanding jobs in flight until it has submitted jobs of them, then waits
// for its tail. submit admits one job and returns the wait for its result.
// Overload and transient no-capacity rejections (queues full, or a fleet
// mid-remediation) retry; admitted jobs are all waited on, so
// completed+failed == admitted.
func closedLoop(tenants, outstanding, jobs int, paths, words []string, seedOf func(tenant int) int64,
	submit func(tenant string, job serve.Job) (wait func() error, err error)) (completed, failed int64) {

	var cdone, cfail atomic.Int64
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", ti)
			rng := rand.New(rand.NewSource(seedOf(ti)))
			sem := make(chan struct{}, outstanding)
			var inner sync.WaitGroup
			for ji := 0; ji < jobs; ji++ {
				spec := randomJob(rng, paths, words)
				sem <- struct{}{}
				var wait func() error
				for {
					var err error
					wait, err = submit(name, spec)
					if err == nil {
						break
					}
					if !errors.Is(err, serve.ErrOverloaded) && !errors.Is(err, fleet.ErrNoHealthyHosts) {
						fatal(err)
					}
					runtime.Gosched()
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					if wait() != nil {
						cfail.Add(1)
					} else {
						cdone.Add(1)
					}
					<-sem
				}()
			}
			inner.Wait()
		}(ti)
	}
	wg.Wait()
	return cdone.Load(), cfail.Load()
}

// reportMetrics is the run's epilogue when -metrics or -metrics-ndjson
// asked for a registry: the expositions, then the summary table.
func reportMetrics(reg *metrics.Registry, promPath, ndjsonPath string) {
	if reg == nil {
		return
	}
	if err := exportMetrics(reg, promPath, (*metrics.Registry).WritePrometheus); err != nil {
		fatal(err)
	}
	if err := exportMetrics(reg, ndjsonPath, (*metrics.Registry).WriteNDJSON); err != nil {
		fatal(err)
	}
	fmt.Println("\nmetrics summary (virtual time):")
	if err := reg.WriteSummary(os.Stdout); err != nil {
		fatal(err)
	}
}

// exportMetrics writes one exposition format to path ("-" = stdout; empty =
// skip).
func exportMetrics(reg *metrics.Registry, path string, write func(*metrics.Registry, io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(reg, os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(reg, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func randomJob(rng *rand.Rand, paths, words []string) serve.Job {
	var pi int
	if rng.Intn(100) < 70 {
		pi = rng.Intn(min(4, len(paths))) // skewed hot set
	} else {
		pi = rng.Intn(len(paths))
	}
	w := words[rng.Intn(len(words))]
	switch rng.Intn(3) {
	case 0:
		return serve.Job{Kind: serve.JobGrep, Path: paths[pi], Word: w}
	case 1:
		return serve.Job{Kind: serve.JobSearch, Path: paths[pi], Word: w}
	default:
		return serve.Job{Kind: serve.JobTransform, Path: paths[pi], MaxOutput: 256}
	}
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpufs-serve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpufs-serve:", err)
	os.Exit(1)
}
