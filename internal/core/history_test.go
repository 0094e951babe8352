package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// Access-history (ISSUE 9) tests: a file's final gclose records what the
// read-ahead detector knew about each stream; a later re-open seeds the
// detector from it and issues each stream's first window at open time —
// and that must (a) be measurably faster than the cold detector, (b) reach
// the host as a few vectored RPCs rather than page-at-a-time probes, (c)
// keep working when the frame pool is full at the re-open, (d) die with
// the file's cache, and (e) never change a byte read.

const (
	histPagesA = 32 // the profiled file
	histPagesB = 64 // churn file: one full pool turnover (64-frame cache)
)

// histShape reads file A's footprint through fd — the access pattern the
// profile captures and the re-open must follow.
type histShape struct {
	name  string
	pages []int64 // order of A's page reads
}

func histShapes() []histShape {
	seq := make([]int64, histPagesA)
	for i := range seq {
		seq[i] = int64(i)
	}
	var stride4 []int64
	for p := int64(0); p < histPagesA; p += 4 {
		stride4 = append(stride4, p)
	}
	return []histShape{{"sequential", seq}, {"stride-4", stride4}}
}

func (s histShape) read(fs *FS, b *gpu.Block, fd int, ps int64, want []byte) error {
	buf := make([]byte, ps)
	for _, p := range s.pages {
		n, err := fs.Read(b, fd, buf, p*ps)
		if err != nil {
			return err
		}
		if int64(n) != ps || !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
			return fmt.Errorf("page %d: wrong bytes (n=%d)", p, n)
		}
	}
	return nil
}

// histWorkload selects one variant of the record-churn-reopen workload.
type histWorkload struct {
	shape histShape
	// cold clears the profile on A's cache before the re-open: the
	// detector starts from nothing, as on a first open.
	cold bool
	// poolFull leaves the churn file's pages resident, so the re-open
	// finds no free frame and speculates into the closed churn file's clean
	// pages.
	poolFull bool
	tweak    func(*Options)
}

// histRun is one record-churn-reopen workload execution.
type histRun struct {
	reopen       simtime.Duration // virtual time of the re-open re-read kernel
	reopenReads  int64            // OpReadPages RPCs issued by the re-open kernel
	reopenIssued int64            // speculative pages issued by the re-open kernel
	cs           CacheStats
}

// runHistoryWorkload executes the canonical repeated-open workload on a
// fresh harness: kernel 1 reads A's footprint (recording the profile at
// close), then drags the whole 64-page file B through the 64-frame pool —
// evicting every one of A's pages — and, unless poolFull, unlinks it to
// leave the pool free; kernel 2 re-opens A and re-reads the same footprint.
// The split lets the caller time the re-open in isolation and count its
// host reads.
func runHistoryWorkload(t *testing.T, w histWorkload) histRun {
	t.Helper()
	opt := defaultOpt()
	if w.tweak != nil {
		w.tweak(&opt)
	}
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := opt.PageSize
	wantA := pattern(histPagesA*int(ps), 3)
	wantB := pattern(histPagesB*int(ps), 4)
	h.write(t, "/a", wantA)
	h.write(t, "/b", wantB)

	end1, err := h.devs[0].Launch(0, 1, 64, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		if err := w.shape.read(fs, b, fd, ps, wantA); err != nil {
			return err
		}
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		fdb, err := fs.Open(b, "/b", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, histPagesB*ps)
		if _, err := fs.Read(b, fdb, buf, 0); err != nil {
			return err
		}
		if err := fs.Close(b, fdb); err != nil {
			return err
		}
		if w.poolFull {
			return nil
		}
		return fs.Unlink(b, "/b")
	})
	if err != nil {
		t.Fatalf("prelude kernel: %v", err)
	}
	if w.cold {
		fs.ft.cacheOf("/a").setProfile(nil)
	}

	reads := h.server.Requests(rpc.OpReadPages)
	issued := fs.CacheStats().PrefetchIssued
	end2, err := h.devs[0].Launch(end1, 1, 64, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		if err := w.shape.read(fs, b, fd, ps, wantA); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	if err != nil {
		t.Fatalf("reopen kernel: %v", err)
	}
	cs := fs.CacheStats()
	return histRun{
		reopen:       end2.Sub(end1),
		reopenReads:  h.server.Requests(rpc.OpReadPages) - reads,
		reopenIssued: cs.PrefetchIssued - issued,
		cs:           cs,
	}
}

// TestHistoryReplayBeatsColdDetector is the ISSUE 9 acceptance bar: on the
// repeated-open workload the seeded re-open must beat the cold detector by
// at least 1.2x of re-open virtual time, for both a sequential and a
// strided footprint.
func TestHistoryReplayBeatsColdDetector(t *testing.T) {
	for _, shape := range histShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			on := runHistoryWorkload(t, histWorkload{shape: shape})
			off := runHistoryWorkload(t, histWorkload{shape: shape, cold: true})

			ratio := float64(off.reopen) / float64(on.reopen)
			t.Logf("reopen: %v seeded vs %v cold (%.2fx), %d vs %d host read RPCs",
				on.reopen, off.reopen, ratio, on.reopenReads, off.reopenReads)
			if ratio < 1.2 {
				t.Errorf("history speedup %.2fx < 1.2x acceptance bar", ratio)
			}
			if on.cs.HistoryReplays != 1 {
				t.Errorf("HistoryReplays = %d, want 1", on.cs.HistoryReplays)
			}
			if on.cs.ReplayUsed == 0 {
				t.Errorf("pre-warm issued %d pages but none were consumed", on.cs.ReplayIssued)
			}
			if off.cs.HistoryReplays != 0 || off.cs.ReplayIssued != 0 {
				t.Errorf("cleared profile pre-warmed anyway: %d opens, %d pages",
					off.cs.HistoryReplays, off.cs.ReplayIssued)
			}
		})
	}
}

// TestHistoryReopenUnderFullPool is the shape the test above steps around
// by unlinking the churn file: the pool is full at the re-open, of the
// closed churn file's clean pages, so speculation reclaims its frames from
// them (never an open file's page, never a write-back) and the open-time
// pre-warm does so before the first demand read. History must not make that
// worse — the seeded re-open issues at least as many speculative pages as the
// cold detector and finishes no later. (The replay engine this replaced
// issued nothing here and switched the detector off while it waited.)
func TestHistoryReopenUnderFullPool(t *testing.T) {
	for _, shape := range histShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			on := runHistoryWorkload(t, histWorkload{shape: shape, poolFull: true})
			off := runHistoryWorkload(t, histWorkload{shape: shape, poolFull: true, cold: true})
			t.Logf("reopen: %v seeded (%d speculative pages) vs %v cold (%d)",
				on.reopen, on.reopenIssued, off.reopen, off.reopenIssued)
			if on.reopenIssued == 0 {
				t.Errorf("seeded re-open speculated nothing under a full pool")
			}
			if on.reopenIssued < off.reopenIssued {
				t.Errorf("seeded re-open issued %d speculative pages, cold detector %d",
					on.reopenIssued, off.reopenIssued)
			}
			if on.reopen > off.reopen {
				t.Errorf("seeded re-open took %v, cold detector %v", on.reopen, off.reopen)
			}
		})
	}
}

// TestHistoryReplayIsVectored pins the mechanism, not just the outcome:
// the re-open's speculation must reach the host as a few coalesced
// vectored ReadPages RPCs covering the recorded footprint, not one RPC per
// page. Small pages make the coalescing visible: at 4K pages a span under
// the host-I/O bound (maxHostIO) holds far more pages than the window's
// half-refill, so a consecutive run rides several pages per RPC.
func TestHistoryReplayIsVectored(t *testing.T) {
	run := runHistoryWorkload(t, histWorkload{
		shape: histShapes()[0], // sequential: 32 pages
		tweak: func(o *Options) {
			o.PageSize = 4 << 10
			o.BufferCacheBytes = 64 * (4 << 10) // keep the 64-frame pool geometry
		},
	})

	if run.cs.HistoryReplays != 1 {
		t.Fatalf("HistoryReplays = %d, want 1", run.cs.HistoryReplays)
	}
	// The pre-warm is one window's worth at most, and it did happen.
	if run.cs.ReplayIssued == 0 || run.cs.ReplayIssued > histPagesA {
		t.Errorf("ReplayIssued = %d, want within [1, %d]", run.cs.ReplayIssued, histPagesA)
	}
	// The whole footprint is speculated: the detector tops the pre-warm up
	// as demand consumes it.
	if run.reopenIssued < histPagesA/2 || run.reopenIssued > histPagesA {
		t.Errorf("re-open speculated %d pages, want within [%d, %d]",
			run.reopenIssued, histPagesA/2, histPagesA)
	}
	// Coalescing: consecutive pages ride one vectored RPC per span, so the
	// 32-page re-read needs far fewer host round trips than pages.
	// (Cold, the same re-read takes a demand fault or probe per page until
	// the detector's window opens.)
	if run.reopenReads > histPagesA/4 {
		t.Errorf("reopen issued %d ReadPages RPCs for a %d-page footprint; speculation is not vectored",
			run.reopenReads, histPagesA)
	}
}

// TestHistoryProfileDiesWithItsCache: a profile lives on its file's cache,
// so whatever ends the cache ends the profile — an external host write (the
// reopen's validation discards the cache), gunlink and a re-create at the
// same path and size, a GPU restart — and an open that confirmed no stride
// leaves none behind. In every arm the next open replays nothing and reads
// the current bytes through the ordinary demand path.
func TestHistoryProfileDiesWithItsCache(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	v1 := pattern(histPagesA*int(ps), 3)
	v2 := pattern(histPagesA*int(ps), 9)
	for _, arm := range []struct {
		name string
		// disrupt runs between the recording kernel and the reopen, and
		// returns the bytes the reopen must read.
		disrupt func(t *testing.T, h *harness, launch func(func(b *gpu.Block) error)) []byte
	}{
		{"host-write", func(t *testing.T, h *harness, _ func(func(b *gpu.Block) error)) []byte {
			// Same path, same size, new content: only the generation
			// distinguishes it.
			h.write(t, "/a", v2)
			return v2
		}},
		{"unlink-recreate", func(t *testing.T, h *harness, launch func(func(b *gpu.Block) error)) []byte {
			launch(func(b *gpu.Block) error { return h.fss[0].Unlink(b, "/a") })
			h.write(t, "/a", v2)
			return v2
		}},
		{"restart", func(t *testing.T, h *harness, launch func(func(b *gpu.Block) error)) []byte {
			launch(func(b *gpu.Block) error { h.fss[0].Restart(b); return nil })
			return v1
		}},
		{"random-open", func(t *testing.T, h *harness, launch func(func(b *gpu.Block) error)) []byte {
			// Consecutive deltas never repeat, so the open confirms no
			// stride (and breaks the one it was seeded with).
			random := histShape{"random", []int64{7, 2, 11, 5, 0, 9}}
			launch(func(b *gpu.Block) error {
				fd, err := h.fss[0].Open(b, "/a", O_RDONLY)
				if err != nil {
					return err
				}
				if err := random.read(h.fss[0], b, fd, ps, v1); err != nil {
					return err
				}
				return h.fss[0].Close(b, fd)
			})
			return v1
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			h := newHarness(t, 1, opt)
			fs := h.fss[0]
			h.write(t, "/a", v1)
			var end simtime.Time
			launch := func(fn func(b *gpu.Block) error) {
				t.Helper()
				var err error
				if end, err = h.devs[0].Launch(end, 1, 64, fn); err != nil {
					t.Fatalf("kernel: %v", err)
				}
			}

			launch(func(b *gpu.Block) error {
				fd, err := fs.Open(b, "/a", O_RDONLY)
				if err != nil {
					return err
				}
				// Page by page: a profile needs a confirmed stride.
				if err := histShapes()[0].read(fs, b, fd, ps, v1); err != nil {
					return fmt.Errorf("first read: %w", err)
				}
				return fs.Close(b, fd)
			})
			if fc := fs.ft.cacheOf("/a"); fc == nil || fc.profile.Load() == nil {
				t.Fatal("the recording open left no profile on its cache")
			}

			want := arm.disrupt(t, h, launch)
			before := fs.CacheStats()
			launch(func(b *gpu.Block) error {
				fd, err := fs.Open(b, "/a", O_RDONLY)
				if err != nil {
					return err
				}
				buf := make([]byte, len(want))
				if _, err := fs.Read(b, fd, buf, 0); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("reopen read: wrong bytes")
				}
				return fs.Close(b, fd)
			})
			after := fs.CacheStats()
			if after.HistoryReplays != before.HistoryReplays || after.ReplayIssued != before.ReplayIssued {
				t.Errorf("dead profile replayed: %d replays, %d pages issued",
					after.HistoryReplays-before.HistoryReplays, after.ReplayIssued-before.ReplayIssued)
			}
		})
	}
}

// TestHistoryMetamorphicOnOff extends the metamorphic suite's contract
// across repeated open/close cycles, where the second open starts from the
// first one's profile: across read shapes the bytes must be identical in the
// extended system (read-ahead on) and the prototype (off), and the CacheStats
// must be identical once the
// speculation counters — the only state the engine is allowed to move —
// are masked out. OpenFilled is one of them here: a file larger than a span
// rides in only as its head, which is speculation.
func TestHistoryMetamorphicOnOff(t *testing.T) {
	specFree := func(cs CacheStats) CacheStats {
		cs.OpenFilled = 0
		cs.PrefetchIssued, cs.PrefetchUsed, cs.PrefetchWasted = 0, 0, 0
		cs.ReplayIssued, cs.ReplayUsed, cs.ReplayWasted = 0, 0, 0
		cs.HistoryReplays = 0
		return cs
	}
	shapes := []struct {
		name  string
		pages []int64
	}{
		{"whole-file", func() []int64 {
			s := make([]int64, 12)
			for i := range s {
				s[i] = int64(i)
			}
			return s
		}()},
		{"strided", []int64{0, 3, 6, 9}},
		{"random", []int64{7, 2, 11, 5, 0, 9}},
	}
	const filePages = 12

	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var bytesBy [2][]byte
			var statsBy [2]CacheStats
			for i, opt := range []Options{defaultOpt(), prototypeOpt()} {
				on := !opt.Prototype
				h := newHarness(t, 1, opt)
				fs := h.fss[0]
				ps := opt.PageSize
				want := pattern(filePages*int(ps), 6)
				h.write(t, "/m", want)

				got := make([]byte, len(shape.pages)*int(ps))
				// Two open/close cycles: the second starts from the first
				// one's profile and must still produce identical bytes.
				start := simtime.Time(0)
				for cycle := 0; cycle < 2; cycle++ {
					end, err := h.devs[0].Launch(start, 1, 64, func(b *gpu.Block) error {
						fd, err := fs.Open(b, "/m", O_RDONLY)
						if err != nil {
							return err
						}
						for j, p := range shape.pages {
							if _, err := fs.Read(b, fd, got[j*int(ps):(j+1)*int(ps)], p*ps); err != nil {
								return err
							}
						}
						return fs.Close(b, fd)
					})
					if err != nil {
						t.Fatalf("cycle %d (read-ahead=%v): %v", cycle, on, err)
					}
					start = end
				}
				for j, p := range shape.pages {
					if !bytes.Equal(got[j*int(ps):(j+1)*int(ps)], want[p*ps:(p+1)*ps]) {
						t.Fatalf("read-ahead=%v: page %d bytes wrong", on, p)
					}
				}
				bytesBy[i] = got
				statsBy[i] = specFree(fs.CacheStats())
			}
			if !bytes.Equal(bytesBy[0], bytesBy[1]) {
				t.Errorf("bytes diverge between read-ahead on and off")
			}
			if statsBy[0] != statsBy[1] {
				t.Errorf("speculation-adjusted CacheStats diverge:\n on: %+v\noff: %+v",
					statsBy[0], statsBy[1])
			}
		})
	}
}

// TestAdaptiveManyBlocksOneFile is the -race pin for the per-read hook:
// sixteen blocks gread one open file at once — each through its own
// detector slot, all through the shared speculation counters, cap and
// the cache's profile — over two open/close cycles, so the second kernel's opener
// seeds slots while other blocks may already be reading through them. (The replay engine's per-open
// recorder raced here; the detector's slots are the only per-read state
// now, each behind its own mutex.)
func TestAdaptiveManyBlocksOneFile(t *testing.T) {
	const (
		blocks     = 16
		pagesEach  = 12
		sharedHead = 4 // pages every block also reads, so streams collide
	)
	opt := defaultOpt()
	opt.BufferCacheBytes = 96 * opt.PageSize // half the file: eviction stays live
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := opt.PageSize
	want := pattern(blocks*pagesEach*int(ps), 13)
	h.write(t, "/shared", want)

	for cycle := 0; cycle < 2; cycle++ {
		h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/shared", O_RDONLY)
			if err != nil {
				return err
			}
			buf := make([]byte, ps)
			read := func(p int64) error {
				if _, err := fs.Read(b, fd, buf, p*ps); err != nil {
					return err
				}
				if !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
					return fmt.Errorf("block %d page %d: wrong bytes", b.Idx, p)
				}
				return nil
			}
			for p := int64(0); p < sharedHead; p++ {
				if err := read(p); err != nil {
					return err
				}
			}
			for p := int64(b.Idx) * pagesEach; p < int64(b.Idx+1)*pagesEach; p++ {
				if err := read(p); err != nil {
					return err
				}
			}
			return fs.Close(b, fd)
		})
	}
	if cs := fs.CacheStats(); cs.PrefetchIssued == 0 {
		t.Errorf("sixteen sequential streams speculated nothing")
	}
}
