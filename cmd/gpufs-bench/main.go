// Command gpufs-bench regenerates the tables and figures of the GPUfs
// paper's evaluation (§5) against the simulated machine.
//
// Usage:
//
//	gpufs-bench [-scale 0.03125] [-exp all|fig4|fig5|fig6|fig7|fig8|table2|
//	    table3|table4|readahead|ablation|serve|daemon|ordering|contention|
//	    saturation]
//
// -scale 1 runs at the paper's full input sizes (needs several GB of RAM
// and minutes of wall time); the default 1/32 preserves every
// capacity-driven crossover while running in seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpufs/internal/bench"
	"gpufs/internal/metrics"
)

func main() {
	scale := flag.Float64("scale", 1.0/32, "uniform scale factor for capacities and input sizes")
	exp := flag.String("exp", "all", "experiment: all, fig4, fig5, fig6, fig7, fig8, table2, table3, table4, readahead, ablation, serve, daemon, ordering, contention, saturation")
	reps := flag.Int("reps", 3, "runs averaged per measured cell (the paper averages 5)")
	jsonOut := flag.Bool("json", false, "emit machine-readable NDJSON (one object per table row) instead of text tables")
	metricsOut := flag.String("metrics", "", `collect metrics across every run and write a Prometheus text exposition to this path at exit ("-" = stderr)`)
	metricsNDJSON := flag.String("metrics-ndjson", "", `collect metrics and write them as NDJSON to this path at exit ("-" = stderr)`)
	flag.Parse()
	if *scale <= 0 {
		usageError("-scale must be > 0, got %g", *scale)
	}
	if *reps < 1 {
		usageError("-reps must be >= 1, got %d", *reps)
	}
	bench.SetReps(*reps)
	var reg *metrics.Registry
	if *metricsOut != "" || *metricsNDJSON != "" {
		// One registry spans the whole sweep: per-system collectors on the
		// same series identity are summed, so the export aggregates every
		// run of the invocation.
		reg = metrics.New()
		bench.SetMetricsRegistry(reg)
	}

	runners := map[string]func(float64) (*bench.Table, error){
		"fig4":       bench.Fig4,
		"fig5":       bench.Fig5,
		"fig6":       bench.Fig6,
		"fig7":       bench.Fig7,
		"fig8":       bench.Fig8,
		"table2":     bench.Table2,
		"table3":     bench.Table3,
		"table4":     bench.Table4,
		"readahead":  bench.Readahead,
		"ablation":   bench.Ablation,
		"serve":      bench.Serve,
		"daemon":     bench.DaemonScaling,
		"ordering":   bench.Ordering,
		"contention": bench.Contention,
		"saturation": bench.Saturation,
	}

	if !*jsonOut {
		fmt.Printf("GPUfs reproduction benchmarks (scale %g; virtual-time results)\n\n", *scale)
	}

	var tables []*bench.Table
	switch key := strings.ToLower(*exp); key {
	case "all":
		all, err := bench.All(*scale)
		if err != nil {
			fatal(err)
		}
		tables = all
	default:
		r, ok := runners[key]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		tb, err := r(*scale)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, tb)
	}

	for _, tb := range tables {
		if *jsonOut {
			if err := tb.WriteJSONRows(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			fmt.Println(tb)
		}
	}

	if reg != nil {
		if err := exportMetrics(reg, *metricsOut, (*metrics.Registry).WritePrometheus); err != nil {
			fatal(err)
		}
		if err := exportMetrics(reg, *metricsNDJSON, (*metrics.Registry).WriteNDJSON); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Println("metrics summary (virtual time, whole sweep):")
			if err := reg.WriteSummary(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
}

// exportMetrics writes one exposition format to path ("-" = stderr, keeping
// stdout clean for table output; empty = skip).
func exportMetrics(reg *metrics.Registry, path string, write func(*metrics.Registry, io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return write(reg, os.Stderr)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpufs-bench:", err)
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpufs-bench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
