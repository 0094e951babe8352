package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// BenchmarkFleetSkewSweep is the spill rule's skew side: 2 hosts x 2 GPUs
// configured like the benchmark's fleet_burst run 16 bursts of 256 search
// jobs over 32 files of 64 KiB, cold files in file order, with a share of
// each burst's jobs spread evenly through it and sent to file 0. For each
// hot share it reports the sum over bursts of the slower host's span (its
// first enqueue to its last completion), in virtual µs. Run it at one P,
// where it repeats:
//
//	go test -run '^$' -bench BenchmarkFleetSkewSweep -benchtime 1x -cpu 1 ./internal/fleet
func BenchmarkFleetSkewSweep(b *testing.B) {
	const files, fileBytes, bursts, window = 32, 64 << 10, 16, 256
	paths := make([]string, files)
	texts := make([][]byte, files)
	want := make([]int, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/sweep/f%02d.txt", i)
		texts[i] = sweepText(int64(i), fileBytes)
		want[i] = bytes.Count(texts[i], []byte("zz"))
	}
	for _, hot := range []struct {
		name     string
		num, den int
	}{{"hot0", 0, 4}, {"hot25", 1, 4}, {"hot50", 2, 4}, {"hot100", 4, 4}} {
		var total simtime.Duration
		for n := 0; n < b.N; n++ {
			total = sweepRun(b, paths, texts, want, hot.num, hot.den, bursts, window)
		}
		b.ReportMetric(float64(total/simtime.Microsecond), hot.name+"-vus")
	}
}

// sweepRun builds a fresh fleet and returns its bursts' summed spans; job
// i of a burst reads file 0 when the running share num/den crosses an
// integer at i, and otherwise the next file in order.
func sweepRun(b *testing.B, paths []string, texts [][]byte, want []int, num, den, bursts, window int) simtime.Duration {
	cp, err := New(Config{LatencyFactor: 1e12, StallProbes: -1}, 2, SimHostFactory(SimHostConfig{
		Scale:   1.0 / 64,
		NumGPUs: 2,
		Serve:   serve.Config{Policy: serve.PlaceAffinity, MaxBatch: 16, QueueDepth: 8},
		Tune: func(cfg *gpufs.Config) {
			cfg.PageSize = 32 << 10
			cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
		},
		Setup: func(_, _ int, sys *gpufs.System) error {
			for i, p := range paths {
				if err := sys.WriteHostFile(p, texts[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}))
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Drain()
	var total simtime.Duration
	futs := make([]*Future, window)
	picks := make([]int, window)
	next := 0
	for burst := 0; burst < bursts; burst++ {
		for i := range futs {
			if (i+1)*num/den > i*num/den {
				picks[i] = 0
			} else {
				picks[i], next = next, (next+1)%len(paths)
			}
			job := serve.Job{Kind: serve.JobSearch, Path: paths[picks[i]], Word: "zz"}
			if futs[i], err = cp.Submit(fmt.Sprintf("t%d", i), job); err != nil {
				b.Fatal(err)
			}
		}
		var start, end [2]simtime.Time
		var ran [2]bool
		for i, f := range futs {
			res := f.Wait()
			if res.Err != nil || res.Count != int64(want[picks[i]]) {
				b.Fatalf("burst %d job %d (%s): count %d, want %d, err %v", burst, i, paths[picks[i]], res.Count, want[picks[i]], res.Err)
			}
			h := res.Host
			end[h] = max(end[h], res.Done)
			if !ran[h] || res.Enqueued < start[h] {
				start[h], ran[h] = res.Enqueued, true
			}
		}
		var span simtime.Duration
		for h := range start {
			span = max(span, end[h].Sub(start[h]))
		}
		total += span
	}
	return total
}

// sweepText is n bytes of seeded words over a..y with the needle "zz"
// now and then as a word of its own.
func sweepText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := make([]byte, 0, n+16)
	for len(text) < n {
		if rng.Intn(64) == 0 {
			text = append(text, "zz"...)
		} else {
			for k := 1 + rng.Intn(8); k > 0; k-- {
				text = append(text, byte('a'+rng.Intn(25)))
			}
		}
		text = append(text, ' ')
	}
	return text[:n]
}
