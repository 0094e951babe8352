package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"gpufs/internal/params"
	"gpufs/internal/simtime/simtest"
	"gpufs/internal/workloads"
)

// TestBenchGuardrail pins headline numbers against the committed
// reference run (BENCH_6.json at the repo root, generated at the default
// -scale 1/32 with -reps 3):
//
//   - the Figure 4 sequential-read throughput at 16K AND 32K pages, the
//     paper's most page-fault-intensive points — any slowdown in the
//     open/fault/DMA pipeline shows up here first;
//   - the daemon-scaling grep speedup at 4 workers over the serialized
//     single-worker daemon — the parallel-RPC-stack win this repo's PR 2
//     introduced;
//   - the contention speedup at 8 workers — the PR-8 lock-free hot
//     path's win, floored at the 1.3x acceptance bar; and
//   - the open-loop saturation throughput (ISSUE 9): re-offered at the
//     reference max-sustainable rate, the serving stack must still
//     achieve 85% of the reference's achieved jobs/s.
//
// Costs ~30s of wall time, so it is opt-in: `make tier2` exports
// GPUFS_BENCH_GUARDRAIL=1; plain `go test` skips it.
func TestBenchGuardrail(t *testing.T) {
	if os.Getenv("GPUFS_BENCH_GUARDRAIL") == "" {
		t.Skip("set GPUFS_BENCH_GUARDRAIL=1 to run the reference-pinned bench guardrail")
	}
	// The reference cells were measured at one P; free-running, which block
	// books a shared resource first is the Go scheduler's choice, and the
	// 16K row and the daemon speedup wander across their bounds.
	simtest.OneP(t)
	ref := loadBenchReference(t, "../../BENCH_6.json")
	const scale = 1.0 / 32 // the scale BENCH_6.json was generated at

	fig4 := func(t *testing.T, pageSize int64, label string) {
		want := ref.float(t, "Figure 4", "page", label, "GPUfs MB/s")

		base := params.Scaled(scale)
		fileBytes := seqFileBytes(&base)
		blocks := 2 * base.MPsPerGPU
		res, err := meanMicro(3, func() (*workloads.MicroResult, error) {
			sys, err := seqSystem(scale, pageSize, fileBytes)
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
			t.Fatal(err)
		}
		got := float64(res.Throughput) / 1e6
		if got < 0.90*want {
			t.Errorf("Fig4 %s sequential read regressed: %.0f MB/s, reference %.0f MB/s (floor 90%%)", label, got, want)
		}
		if got > 1.25*want {
			t.Errorf("Fig4 %s sequential read implausibly fast: %.0f MB/s vs reference %.0f MB/s — timing model change? regenerate BENCH_6.json", label, got, want)
		}
	}
	t.Run("Fig4-16K", func(t *testing.T) { fig4(t, 16<<10, "16K") })
	t.Run("Fig4-32K", func(t *testing.T) { fig4(t, 32<<10, "32K") })

	t.Run("Contention-8w", func(t *testing.T) {
		refSpeed := ref.speedup(t, "Contention", "workers×shards", "8", "speedup")
		floor := 1.3
		if f := 0.85 * refSpeed; f > floor {
			floor = f
		}
		base, err := contentionPoint(scale, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := contentionPoint(scale, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(base) / float64(fast)
		if got < floor {
			t.Errorf("contention 8-worker lock-free speedup regressed: %.2fx, floor %.2fx (reference %.2fx)", got, floor, refSpeed)
		}
	})

	t.Run("Saturation-max", func(t *testing.T) {
		// Re-offer the reference's max sustainable load and require the
		// achieved throughput to stay within 85% of the reference. One
		// open-loop run, not the whole sweep: the pinned quantity is what
		// the machine delivers at the known knee, not where the knee is.
		refOffered := ref.float(t, "Saturation", "load", "max", "offered jobs/s")
		refAchieved := ref.float(t, "Saturation", "load", "max", "achieved jobs/s")
		pt, err := saturationPoint(scale, refOffered, 100)
		if err != nil {
			t.Fatal(err)
		}
		got := pt.res.AchievedRate()
		if got < 0.85*refAchieved {
			t.Errorf("saturation throughput regressed: %.0f jobs/s at the reference max-sustainable offer of %.0f, reference achieved %.0f (floor 85%%)",
				got, refOffered, refAchieved)
		}
	})

	t.Run("DaemonScaling-4w", func(t *testing.T) {
		want := ref.speedup(t, "Daemon", "workers×shards", "4", "grep speedup")

		g1, _, err := daemonScalingPoint(scale, 1, daemonGrepFiles, daemonReadBytes)
		if err != nil {
			t.Fatal(err)
		}
		g4, _, err := daemonScalingPoint(scale, 4, daemonGrepFiles, daemonReadBytes)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(g1) / float64(g4)
		if got < 0.85*want {
			t.Errorf("daemon 4-worker grep speedup regressed: %.2fx, reference %.2fx (floor 85%%)", got, want)
		}
	})
}

// benchReference is the parsed NDJSON reference: one row per table row.
type benchReference struct {
	rows []benchRefRow
}

type benchRefRow struct {
	Experiment string            `json:"experiment"`
	Cells      map[string]string `json:"cells"`
}

func loadBenchReference(t *testing.T, path string) *benchReference {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reference run missing: %v", err)
	}
	defer f.Close()
	ref := &benchReference{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row benchRefRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad reference row %q: %v", sc.Text(), err)
		}
		ref.rows = append(ref.rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// cell finds the row of experiment where keyCol == keyVal and returns valCol.
func (r *benchReference) cell(t *testing.T, experiment, keyCol, keyVal, valCol string) string {
	t.Helper()
	for _, row := range r.rows {
		if row.Experiment == experiment && row.Cells[keyCol] == keyVal {
			if v, ok := row.Cells[valCol]; ok {
				return v
			}
		}
	}
	t.Fatalf("reference has no %s row with %s=%s and column %s", experiment, keyCol, keyVal, valCol)
	return ""
}

func (r *benchReference) float(t *testing.T, experiment, keyCol, keyVal, valCol string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.cell(t, experiment, keyCol, keyVal, valCol), 64)
	if err != nil {
		t.Fatalf("reference cell not numeric: %v", err)
	}
	return v
}

// speedup parses a "2.32x" cell.
func (r *benchReference) speedup(t *testing.T, experiment, keyCol, keyVal, valCol string) float64 {
	t.Helper()
	s := r.cell(t, experiment, keyCol, keyVal, valCol)
	if len(s) > 0 && s[len(s)-1] == 'x' {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("reference speedup cell %q: %v", s, err)
	}
	return v
}
