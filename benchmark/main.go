// Command benchmark is the repo's benchmark: seven fixed workloads over the
// simulated GPUfs machine, measured on two clocks (virtual time of the
// modelled machine, host time of the simulator), with per-layer
// attribution taken from outside the program. See README.md.
//
// The driver runs it, through run.sh, as
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. With no
// arguments it runs every workload; -trace 1 prints the per-layer metrics
// and writes Chrome traces; -selfcheck runs everything twice and compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named set of inputs. run performs ONE repetition: it
// builds a fresh machine and corpus, runs the measured phase, and checks
// the outputs.
type workload struct {
	name, why string
	// draws is how many distinct input draws a run's virtual metrics
	// average over. Rep i uses draw i%draws, so once every draw has run
	// the virtual metrics no longer depend on how many reps the host-time
	// budget allowed: a faster simulator must reproduce them exactly. A
	// workload whose metrics hardly depend on the draw needs few;
	// rand_evict's tail latency does, and fleet_burst's routing follows
	// goroutine order on top (ROADMAP item 1), so they need many.
	draws int
	run   func(env) (*rep, error)
}

var allWorkloads = []workload{
	{"seq_cold", "cold sequential Gread at 32K pages, BENCH_6's one losing row: every byte crosses gsys, rpc, hostfs and pcie; read-ahead (dead zone at 32K), hit path, paging and serve idle", 5, seqCold},
	{"rand_evict", "random 32K reads and writes over 4x the buffer cache: the only workload that evicts dirty pages, so paging, the allocator and the cleaner work; read-ahead must stay quiet", 30, randEvict},
	{"hot_mixed", "readers re-read a cache-resident region while writers Gfsync: radix lookup, epoch pin and device memory do the work, readers send no RPCs", 5, hotMixed},
	{"open_scan", "open-read-close over 1024 small files, twice: metadata-bound, so syscalls, daemon, wrapfs and namespace work; the second pass isolates fast reopen", 5, openScan},
	{"reopen_scan", "sequential scan of 32-page files at 16K pages through a cache 1/4 the corpus, twice: the one workload where read-ahead (pass 1) and history replay (pass 2) fire", 5, reopenScan},
	{"serve_open", "open-loop Poisson arrivals into serve.Server over cache-resident files at frozen rates around the knee: admission, placement, batching and launch work", 8, serveOpen},
	{"fleet_burst", "closed-loop bursts through fleet.ControlPlane over 2 hosts with no faults: the only workload through fleet routing and the exactly-once watchers", 25, fleetBurst},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func drawSeed(seed int64, draw int) int64 { return seed*1_000_003 + int64(draw) }

// pass runs reps of w, cycling through nDraws input draws, until budget has
// passed and at least minReps are done. It returns the reps grouped by
// draw.
func pass(w workload, e env, nDraws, minReps int, budget time.Duration) ([][]*rep, error) {
	byDraw := make([][]*rep, nDraws)
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		d := i % nDraws
		calibS := calibrate()
		r, err := w.run(e.withSeed(drawSeed(e.seed, d)))
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, i, err)
		}
		r.calibS = calibS
		byDraw[d] = append(byDraw[d], r)
	}
	return byDraw, nil
}

// result is one workload run as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// free is the free-running pass's output checks (traced run only).
	// They are kept apart from Attempted and Failed: see runPerLayer.
	free *result
	// speed is the reference over the measured calibration time (untraced
	// run only): what the host-clock metrics were multiplied by.
	speed float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally adds the reps' output checks to the result.
func (res *result) tally(reps ...*rep) {
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
}

// isVirtual reports whether a metric reads the virtual clock.
func isVirtual(name string) bool {
	return strings.HasPrefix(name, "virt_") || strings.HasSuffix(name, "_vms") || strings.HasSuffix(name, "_vus")
}

// runEndToEnd is the untraced run: one discarded warm-up rep, then measured
// reps at GOMAXPROCS(1) for the whole budget. Virtual metrics are the
// interquartile mean over the input draws (each draw's value being the
// median of its reps, which are expected to be identical). Host metrics
// are the lower quartile over all reps (on a shared machine interference
// only ever adds time, so the faster reps estimate the simulator's own
// cost better, and repeat better, than the middle ones), brought to
// reference speed by the calibration run beside each rep.
func runEndToEnd(w workload, e env, budget time.Duration) (*result, error) {
	runtime.GOMAXPROCS(1)
	if _, err := w.run(e.withSeed(drawSeed(e.seed, 0))); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	byDraw, err := pass(w, e, w.draws, w.draws, budget)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	values := make([][]map[string]float64, len(byDraw)) // [draw][rep][metric]
	var calibS []float64
	for d, reps := range byDraw {
		res.tally(reps...)
		for _, r := range reps {
			values[d] = append(values[d], r.e2e())
			calibS = append(calibS, r.calibS)
		}
	}
	res.speed = calibReferenceS / quantile(calibS, 0.25)
	for _, def := range endToEnd {
		var all, perDraw []float64
		for _, reps := range values {
			var vals []float64
			for _, m := range reps {
				vals = append(vals, m[def.Name])
			}
			all = append(all, vals...)
			perDraw = append(perDraw, median(vals))
		}
		v := quantile(all, 0.25) * res.speed
		if isVirtual(def.Name) || def.Name == "host_alloc_mb" {
			v = midmean(perDraw)
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runPerLayer is the traced run. Its measured pass repeats ONE input draw
// at GOMAXPROCS(1), so counters and makespans are expected to repeat; a
// free-running pass then gives the scheduler-order spread, one traced rep
// gives the tracing overhead and the Chrome trace, and the layer probes
// run once.
func runPerLayer(w workload, e env, budget time.Duration, outDir string) (*result, error) {
	runtime.GOMAXPROCS(1)
	e.full = true
	if _, err := w.run(e.withSeed(drawSeed(e.seed, 0))); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	measured, err := pass(w, e, 1, 2, budget*2/5)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	res.tally(measured[0]...)
	layer := map[string]float64{}
	for _, def := range perLayer {
		var vals []float64
		for _, r := range measured[0] {
			vals = append(vals, r.layer[def.Name])
		}
		layer[def.Name] = median(vals)
	}
	var hostS []float64
	for _, r := range measured[0] {
		hostS = append(hostS, r.hostS)
	}
	layer["simtime.repeat_delta_pct"] = makespanSpreadPct(measured[0])

	// Free pass: the same draw with the Go scheduler free to interleave
	// threadblocks, which is what ROADMAP item 1 is to make irrelevant.
	// Real parallelism also exposes two known races in the program that
	// one P never triggers (KNOWN_ISSUES.md). The benchmark must run on
	// inputs on which no operation fails, so what the oracles catch here
	// does not fail the run: it is a metric of its own, printResult marks
	// it loudly, and -selfcheck fails on it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	e.full = false
	free, err := pass(w, e, 1, 3, budget/5)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	res.free = &result{}
	res.free.tally(free[0]...)
	layer["bench.free_pass_fail_frac"] = float64(res.free.Failed) / float64(res.free.Attempted)
	layer["simtime.sched_spread_pct"] = makespanSpreadPct(free[0])

	// Traced rep.
	e.full = true
	e.rec = newRecorder()
	traced, err := w.run(e.withSeed(drawSeed(e.seed, 0)))
	if err != nil {
		return nil, fmt.Errorf("%s traced rep: %w", w.name, err)
	}
	res.tally(traced)
	if err := e.rec.write(fmt.Sprintf("%s/trace_%s.json", outDir, w.name)); err != nil {
		return nil, err
	}
	layer["gpufs.trace_overhead_pct"] = (traced.hostS/median(hostS) - 1) * 100
	layer["core.cache_hit_ratio"] = traced.layer["core.cache_hit_ratio"]

	probes, err := runProbes(e.seed, e.smoke)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		layer[k] = v
	}
	layer["bench.fail_frac"] = float64(res.Failed) / float64(res.Attempted)

	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{layer[def.Name], def.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (e env) withSeed(seed int64) env { e.seed = seed; return e }

// makespanSpreadPct is (max-min)/median of the reps' virtual makespans.
func makespanSpreadPct(reps []*rep) float64 {
	var v []float64
	for _, r := range reps {
		v = append(v, r.makespan.Seconds())
	}
	return spreadPct(v)
}

func printResult(name string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s (attempted %d, failed %d)\n", name, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if res.speed != 0 {
		fmt.Printf("machine speed %.3f of reference (setup_s and host_s are CPU seconds times this)\n", res.speed)
	}
	if res.free != nil && res.free.Failed > 0 {
		for _, out := range []*os.File{os.Stdout, os.Stderr} {
			fmt.Fprintf(out, "!!!! %s: %d of %d output checks FAILED in the free-running pass: the program lost or corrupted data under real parallelism (benchmark/KNOWN_ISSUES.md)\n",
				name, res.free.Failed, res.free.Attempted)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceDir is where the traced run writes trace_<workload>.json. run.sh
// always starts the binary from the repo root.
const traceDir = "benchmark/out"

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed for corpus bytes, offsets, arrival gaps and job mix")
		seconds   = flag.Float64("seconds", runSeconds, "host seconds one workload run measures for")
		trace     = flag.Int("trace", 0, "1: print the per-layer metrics and write Chrome traces")
		selfcheck = flag.Bool("selfcheck", false, "run the whole benchmark twice and compare the two")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *selfcheck, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, selfcheck, spec bool) error {
	if spec {
		out, err := specJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	selected := allWorkloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	budget := time.Duration(seconds * float64(time.Second))
	e := env{seed: seed}
	if selfcheck {
		return selfCheck(selected, e, budget)
	}
	for _, w := range selected {
		var res *result
		var err error
		if trace == 1 {
			res, err = runPerLayer(w, e, budget, traceDir)
		} else {
			res, err = runEndToEnd(w, e, budget)
		}
		if err != nil {
			return err
		}
		if err := printResult(w.name, res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed their output check", w.name, res.Failed, res.Attempted)
		}
	}
	return nil
}
