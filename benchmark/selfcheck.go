package main

import (
	"fmt"
	"math"
	"time"
)

// readOnlyWorkloads are the file workloads with no background writer or
// watcher goroutine: their counters must repeat exactly.
var readOnlyWorkloads = map[string]bool{"seq_cold": true, "open_scan": true}

// fileWorkloads run kernels at GOMAXPROCS(1) with no serving goroutines, so
// their virtual clock repeats: exactly on the read-only ones, within a few
// percent where writers or asynchronous prefetches keep the daemon busy
// beside the blocks.
var fileWorkloads = map[string]bool{"seq_cold": true, "rand_evict": true, "hot_mixed": true, "open_scan": true, "reopen_scan": true}

// fileVirtualBound is the bound on a virtual metric of a file workload.
// BENCHMARK.json holds one bound per metric, which has to cover the serving
// workloads' scatter (ROADMAP item 1); a regression on a file workload is
// anything beyond this.
const fileVirtualBound = 0.05

// boundFor is the bound a pair of runs of one workload is held to.
func boundFor(workload string, def e2eDef) float64 {
	switch {
	case !isVirtual(def.Name):
		return def.Bound
	case readOnlyWorkloads[workload]:
		return 0
	case fileWorkloads[workload]:
		return min(def.Bound, fileVirtualBound)
	}
	return def.Bound
}

// selfCheck runs every selected workload twice, untraced and traced, in
// this one process, and fails — naming metric and workload — if an
// end-to-end pair differs by more than its bound, or if any counter or
// virtual cost of a read-only file workload differs at all. It prints the
// observed difference beside each bound.
func selfCheck(selected []workload, e env, budget time.Duration) error {
	var failures []string
	for _, w := range selected {
		var e2e, layer [2]*result
		for i := range e2e {
			var err error
			if e2e[i], err = runEndToEnd(w, e, budget); err != nil {
				return err
			}
			if layer[i], err = runPerLayer(w, e, budget, traceDir); err != nil {
				return err
			}
			if !e2e[i].Correct || !layer[i].Correct {
				failures = append(failures, fmt.Sprintf("%s: failed its output check", w.name))
			}
			if f := layer[i].free; f.Failed > 0 {
				failures = append(failures, fmt.Sprintf("%s: %d of %d output checks failed in the free-running pass (KNOWN_ISSUES.md)",
					w.name, f.Failed, f.Attempted))
			}
		}
		fmt.Printf("== %s\n%-28s %14s %14s %9s %7s\n", w.name, "metric", "run 1", "run 2", "diff", "bound")
		for _, def := range endToEnd {
			a, b := e2e[0].Metrics[def.Name].Value, e2e[1].Metrics[def.Name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			bound := boundFor(w.name, def)
			verdict := ""
			if !(diff <= bound) { // also catches NaN
				verdict = "  FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: %g vs %g differ by %.1f%%, bound %.0f%%",
					w.name, def.Name, a, b, diff*100, bound*100))
			}
			fmt.Printf("%-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", def.Name, a, b, diff*100, bound*100, verdict)
		}
		for _, def := range perLayer {
			a, b := layer[0].Metrics[def.Name].Value, layer[1].Metrics[def.Name].Value
			if a == b {
				continue
			}
			verdict := ""
			if readOnlyWorkloads[w.name] && (def.Unit == "count" || isVirtual(def.Name)) {
				verdict = "  FAIL"
				failures = append(failures, fmt.Sprintf("%s %s: %g vs %g, must repeat exactly", w.name, def.Name, a, b))
			}
			fmt.Printf("%-28s %14.6g %14.6g%s\n", def.Name, a, b, verdict)
		}
		if d := layer[0].Metrics["simtime.repeat_delta_pct"].Value; readOnlyWorkloads[w.name] && d != 0 {
			failures = append(failures, fmt.Sprintf("%s simtime.repeat_delta_pct: %g, want 0", w.name, d))
		}
	}
	for _, f := range failures {
		fmt.Println("FAIL", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: %d failures", len(failures))
	}
	fmt.Println("selfcheck ok")
	return nil
}
