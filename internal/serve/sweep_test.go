package serve

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// BenchmarkHostSkewSweep is the GPU-level side of the placement rule, beside
// internal/fleet's BenchmarkFleetSkewSweep: one host with 2 and with 4 GPUs
// runs 16 bursts of 256 search jobs over 32 files of 64 KiB, cold files in
// file order, with a share of each burst's jobs spread evenly through it and
// sent to file 0. For each GPU count and hot share it reports the sum over
// bursts of the burst's span (its first enqueue to its last completion), in
// virtual µs. Run it at one P, where it repeats:
//
//	go test -run '^$' -bench BenchmarkHostSkewSweep -benchtime 1x -cpu 1 ./internal/serve
func BenchmarkHostSkewSweep(b *testing.B) {
	const files, fileBytes, bursts, window = 32, 64 << 10, 16, 256
	dict := workloads.MakeDictionary(200)
	word := dict.Words[0]
	paths := make([]string, files)
	texts := make([][]byte, files)
	want := make([]int64, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/sweep/f%02d.txt", i)
		texts[i] = workloads.MakeText(fileBytes, workloads.TextSpec{Dict: dict, DictFraction: 0.7, Seed: int64(i)})
		want[i] = int64(bytes.Count(texts[i], []byte(word)))
	}
	for _, gpus := range []int{2, 4} {
		for _, hot := range []struct {
			name     string
			num, den int
		}{{"hot0", 0, 4}, {"hot25", 1, 4}, {"hot50", 2, 4}, {"hot100", 4, 4}} {
			var total simtime.Duration
			for n := 0; n < b.N; n++ {
				total = hostSweepRun(b, gpus, paths, texts, want, word, hot.num, hot.den, bursts, window)
			}
			b.ReportMetric(float64(total/simtime.Microsecond), fmt.Sprintf("g%d-%s-vus", gpus, hot.name))
		}
	}
}

// hostSweepRun builds a fresh host and returns its bursts' summed spans; job
// i of a burst reads file 0 when the running share num/den crosses an
// integer at i, and otherwise the next file in order.
func hostSweepRun(b *testing.B, gpus int, paths []string, texts [][]byte, want []int64, word string, num, den, bursts, window int) simtime.Duration {
	cfg := gpufs.ScaledConfig(1.0 / 64)
	cfg.NumGPUs = gpus
	cfg.PageSize = 32 << 10
	cfg.GPUMemBytes = cfg.BufferCacheBytes + 1<<20
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range paths {
		if err := sys.WriteHostFile(p, texts[i]); err != nil {
			b.Fatal(err)
		}
	}
	srv := New(sys, Config{Policy: PlaceAffinity, MaxBatch: 16, QueueDepth: 8})
	defer srv.Drain()
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
			job := Job{Kind: JobSearch, Path: paths[picks[i]], Word: word}
			if futs[i], err = srv.Submit(fmt.Sprintf("t%d", i), job); err != nil {
				b.Fatal(err)
			}
		}
		var start, end simtime.Time
		for i, f := range futs {
			res := f.Wait()
			if res.Err != nil || res.Count != want[picks[i]] {
				b.Fatalf("burst %d job %d (%s): count %d, want %d, err %v", burst, i, paths[picks[i]], res.Count, want[picks[i]], res.Err)
			}
			end = max(end, res.Done)
			if i == 0 || res.Enqueued < start {
				start = res.Enqueued
			}
		}
		total += end.Sub(start)
	}
	return total
}
