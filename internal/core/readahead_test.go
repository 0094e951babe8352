package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/rpc"
	"gpufs/internal/trace"
)

// TestEvictFromFileLargeTargetSingleCall is the regression test for the
// leaf-traversal bound in evictFromFile: with the old fixed bound a
// single call could never reclaim more than ~128 pages from one file (two
// full leaves plus slack), so large targets silently under-delivered and
// the caller spun. The bound now scales with the target.
func TestEvictFromFileLargeTargetSingleCall(t *testing.T) {
	opt := defaultOpt()
	opt.PageSize = 4 << 10
	opt.CacheBytes = 192 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	const pages = 144 // needs three radix leaves
	h.write(t, "/big", pattern(pages*4<<10, 1))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/big", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 4<<10)
		for i := int64(0); i < pages; i++ {
			if _, err := fs.Read(b, fd, buf, i*int64(len(buf))); err != nil {
				return err
			}
		}
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		victims := fs.ft.victims()
		if len(victims) != 1 || victims[0].class != 0 {
			t.Fatalf("victims = %+v", victims)
		}
		if n := fs.evictFromFile(fs.blockActor(b), victims[0], pages, evictAny); n != pages {
			t.Errorf("one evictFromFile call reclaimed %d of %d pages", n, pages)
		}
		return nil
	})
	if free := fs.cache.FreeFrames(); free != 192 {
		t.Errorf("free frames after eviction = %d, want 192", free)
	}
}

// TestFetchBudgetScaling covers the multi-page gread pipelining budget:
// the full cap with a healthy pool, half the free frames when nearly
// drained, zero when empty (demand faults keep absolute priority).
func TestFetchBudgetScaling(t *testing.T) {
	opt := defaultOpt() // 64 frames
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	if got := fs.fetchBudget(); got != maxBatchFetch {
		t.Fatalf("full pool budget = %d, want %d", got, maxBatchFetch)
	}
	// Drain to 20 free: below the 2*cap threshold, budget = free/2.
	for i := 0; i < 44; i++ {
		if fs.cache.TryAllocOn(0, 99, int64(i)*opt.PageSize) == nil {
			t.Fatal("TryAlloc failed with free frames available")
		}
	}
	if got := fs.fetchBudget(); got != 10 {
		t.Fatalf("near-drained budget = %d, want 10", got)
	}
	// Drain to 1 and then 0: budget hits zero before the pool does.
	for i := 44; i < 63; i++ {
		fs.cache.TryAllocOn(0, 99, int64(i)*opt.PageSize)
	}
	if got := fs.fetchBudget(); got != 0 {
		t.Fatalf("1-free budget = %d, want 0", got)
	}
	fs.cache.TryAllocOn(0, 99, 63*opt.PageSize)
	if got := fs.fetchBudget(); got != 0 {
		t.Fatalf("drained budget = %d, want 0", got)
	}
}

// TestPrefetchNeverEvictsFullCache: speculation aborts rather than paging
// out resident data — with the pool 100% occupied, spanFetch (adjacent or
// strided) must allocate nothing and evict nothing.
func TestPrefetchNeverEvictsFullCache(t *testing.T) {
	opt := defaultOpt() // 64 frames of 16K
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/a", pattern(int(opt.CacheBytes), 3)) // exactly fills the pool
	h.write(t, "/b", pattern(4*16<<10, 4))

	h.run(t, 0, func(b *gpu.Block) error {
		fdA, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fdA)
		buf := make([]byte, opt.CacheBytes)
		if _, err := fs.Read(b, fdA, buf, 0); err != nil {
			return err
		}
		if free := fs.cache.FreeFrames(); free != 0 {
			t.Fatalf("pool not full: %d free", free)
		}
		fdB, err := fs.Open(b, "/b", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fdB)
		fB := fs.ft.fds[fdB]
		allocs := fs.cache.Allocs()
		fs.spanFetch(b, fB, 0, 4, 1, pcache.SpecPending, gsys.GranBlock)
		fs.spanFetch(b, fB, 0, 2, 2, pcache.SpecPending, gsys.GranBlock)
		if got := fs.cache.Allocs(); got != allocs {
			t.Errorf("speculation allocated %d frames from a full pool", got-allocs)
		}
		if free := fs.cache.FreeFrames(); free != 0 {
			t.Errorf("speculation evicted: %d frames freed", free)
		}
		return nil
	})
	if cs := fs.CacheStats(); cs.PrefetchIssued != 0 {
		t.Errorf("PrefetchIssued = %d under a full cache", cs.PrefetchIssued)
	}
}

// TestSpeculationTakesClosedPages: a confirmed stream that finds the pool dry
// reclaims clean pages of closed files for its window — oldest retirement
// first and, within the file, oldest leaf first — and nothing else. The pool
// holds one dirty page of the oldest closed file, a newer closed file that is
// all clean (its upper leaf read first, so it is the older leaf), an open
// file's pages, and the first six pages of a reader's file, which the reader
// brings in with free frames 32K at a time; the sixth confirms the stride with
// no frame left. At the parent speculation issued nothing from there, and the
// reader's demand faults evicted the dirty page first, with a write.
func TestSpeculationTakesClosedPages(t *testing.T) {
	const (
		cleanPages  = 128 // two leaves
		openPages   = 25
		readerPages = 32
		warmPages   = 6 // the reader's pages in the pool when its stride confirms
	)
	opt := defaultOpt()
	opt.ReadAheadAdaptive = true
	opt.CacheBytes = (1 + cleanPages + openPages + warmPages) * opt.PageSize
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	tr := trace.New(1 << 12)
	tr.Enable(true)
	fs.SetTracer(tr)
	h.write(t, "/dirty", pattern(int(ps), 1))
	h.write(t, "/clean", pattern(cleanPages*int(ps), 2))
	h.write(t, "/open", pattern(openPages*int(ps), 3))
	want := pattern(readerPages*int(ps), 4)
	h.write(t, "/reader", want)

	half := int64(cleanPages / 2)
	var closedHeld int64
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/dirty", O_RDWR)
		if err != nil {
			return err
		}
		gwrite(t, fs, b, fd, pattern(int(ps), 9), 0)
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		if fd, err = fs.Open(b, "/clean", O_RDONLY); err != nil {
			return err
		}
		greadAt(t, fs, b, fd, half*ps, half*ps)
		greadAt(t, fs, b, fd, half*ps, 0)
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		if fd, err = fs.Open(b, "/open", O_RDONLY); err != nil {
			return err
		}
		gread(t, fs, b, fd, openPages*ps)
		closedHeld = fs.ft.closedCleanPages()

		fd, err = fs.Open(b, "/reader", O_RDONLY)
		if err != nil {
			return err
		}
		got := make([]byte, 2*ps)
		for p := int64(0); p < readerPages; p += 2 {
			if _, err := fs.Read(b, fd, got, p*ps); err != nil {
				return err
			}
			if !bytes.Equal(got, want[p*ps:(p+2)*ps]) {
				t.Errorf("pages %d-%d: wrong bytes", p, p+1)
			}
			if p+2 == warmPages {
				if free := fs.cache.FreeFrames(); free != 0 {
					t.Fatalf("the stride confirmed with %d frames free, want none", free)
				}
			}
		}
		return fs.Close(b, fd)
	})

	if closedHeld != cleanPages {
		t.Errorf("the closed table counted %d clean pages, want the clean file's %d", closedHeld, cleanPages)
	}
	cs := fs.CacheStats()
	if want := int64(readerPages - warmPages); cs.PrefetchIssued != want || cs.SpecReclaimed != want {
		t.Errorf("speculation issued %d pages and reclaimed %d, want the reader's last %d both", cs.PrefetchIssued, cs.SpecReclaimed, want)
	}
	if got := fs.Cache().Reclaimed(); got != cs.SpecReclaimed {
		t.Errorf("%d pages reclaimed, %d of them by speculation: a demand fault evicted", got, cs.SpecReclaimed)
	}
	for _, e := range tr.Snapshot() {
		if e.Op == trace.OpPrefetch && e.Bytes != 2*ps {
			t.Errorf("a speculative span of %d bytes at %d, want two pages", e.Bytes, e.Offset)
		}
	}
	if got := h.server.Requests(rpc.OpWritePages); got != 0 {
		t.Errorf("speculation sent %d writes", got)
	}
	if got := fs.ResidentPages("/dirty"); got != 1 {
		t.Errorf("the closed file's dirty page is gone (%d resident)", got)
	}
	if got := fs.ResidentPages("/open"); got != openPages {
		t.Errorf("the open file holds %d pages, want its %d", got, openPages)
	}
	// Oldest leaf first, in slot order: what is gone of the clean file is the
	// head of its upper half.
	fc := fs.ft.cacheOf("/clean")
	for p := int64(0); p < cleanPages; p++ {
		fp, _ := fc.tree.LookupLeaf(uint64(p))
		gone := p >= half && p < half+cs.SpecReclaimed
		if resident := fp != nil && fp.Ready(); resident == gone {
			t.Errorf("clean file page %d: resident %v, want %v", p, resident, !gone)
		}
	}
	h.checkDirtyCounts(t)
}

// TestSpeculationReclaimsUnderChurn is the -race pin for the closed table's
// clean count: sixteen blocks each scan a file of their own through a pool a
// quarter of the corpus, three open/close cycles each, the odd ones dirtying
// a page before every close — so caches retire, are taken back by a fast
// reopen and lose pages to other blocks' speculation and demand faults all at
// once. Every byte read must be right, speculation must have reclaimed, and
// at quiescence the counts must agree with a walk (checkDirtyCounts).
func TestSpeculationReclaimsUnderChurn(t *testing.T) {
	const (
		blocks = 16
		pages  = 12
	)
	opt := defaultOpt()
	opt.ReadAheadAdaptive = true
	opt.CacheBytes = blocks * pages / 4 * opt.PageSize
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	want := make([][]byte, blocks)
	for i := range want {
		want[i] = pattern(pages*int(ps), byte(i))
		h.write(t, fmt.Sprintf("/churn%d", i), want[i])
	}
	h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
		path, flags := fmt.Sprintf("/churn%d", b.Idx), O_RDONLY
		if b.Idx%2 == 1 {
			flags = O_RDWR
		}
		buf := make([]byte, ps)
		for cycle := 0; cycle < 3; cycle++ {
			fd, err := fs.Open(b, path, flags)
			if err != nil {
				return err
			}
			for p := int64(0); p < pages; p++ {
				if _, err := fs.Read(b, fd, buf, p*ps); err != nil {
					return err
				}
				if !bytes.Equal(buf, want[b.Idx][p*ps:(p+1)*ps]) {
					return fmt.Errorf("block %d cycle %d page %d: wrong bytes", b.Idx, cycle, p)
				}
			}
			if flags == O_RDWR {
				if _, err := fs.Write(b, fd, want[b.Idx][:ps], 0); err != nil {
					return err
				}
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
		}
		return nil
	})
	if cs := fs.CacheStats(); cs.SpecReclaimed == 0 {
		t.Errorf("no speculation reclaimed a closed page (%d issued)", cs.PrefetchIssued)
	}
	h.checkDirtyCounts(t)
}

// TestAdaptiveSequentialSpeculates: a sequential page-by-page scan must
// trip the detector, and — with a cache large enough that nothing is
// reclaimed — every speculated page is later consumed by the scan, so
// used equals issued and nothing is wasted.
func TestAdaptiveSequentialSpeculates(t *testing.T) {
	opt := defaultOpt()
	opt.ReadAheadAdaptive = true
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	const pages = 48
	want := pattern(pages*16<<10, 5)
	h.write(t, "/seq", want)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/seq", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		buf := make([]byte, 16<<10)
		for i := int64(0); i < pages; i++ {
			if _, err := fs.Read(b, fd, buf, i*int64(len(buf))); err != nil {
				return err
			}
			if !bytes.Equal(buf, want[i*int64(len(buf)):(i+1)*int64(len(buf))]) {
				t.Fatalf("page %d content mismatch through speculation", i)
			}
		}
		return nil
	})
	cs := fs.CacheStats()
	if cs.PrefetchIssued < 20 {
		t.Errorf("sequential scan speculated only %d pages", cs.PrefetchIssued)
	}
	if cs.PrefetchUsed != cs.PrefetchIssued {
		t.Errorf("used %d of %d issued (expected all: nothing was evicted)",
			cs.PrefetchUsed, cs.PrefetchIssued)
	}
	if cs.PrefetchWasted != 0 {
		t.Errorf("PrefetchWasted = %d with an unpressured cache", cs.PrefetchWasted)
	}
}

// TestAdaptiveRandomStaysQuiet: accesses with no repeated stride never
// clear the detector's confidence gate, so nothing is speculated.
func TestAdaptiveRandomStaysQuiet(t *testing.T) {
	opt := defaultOpt()
	opt.ReadAheadAdaptive = true
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/rand", pattern(64*16<<10, 6))

	// No two consecutive page deltas are equal.
	pages := []int64{0, 5, 2, 11, 4, 17, 8, 27, 10, 33, 1, 40, 3, 50, 7, 62}
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/rand", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		buf := make([]byte, 16<<10)
		for _, p := range pages {
			if _, err := fs.Read(b, fd, buf, p*16<<10); err != nil {
				return err
			}
		}
		return nil
	})
	if cs := fs.CacheStats(); cs.PrefetchIssued != 0 {
		t.Errorf("random access speculated %d pages", cs.PrefetchIssued)
	}
}

// TestCleanerCleansOpenDirtyInPlace: a low-watermark kick writes an open
// file's cold dirty pages back on the cleaner's own clock, leaving them
// resident and clean, and the counters record the pass.
func TestCleanerCleansOpenDirtyInPlace(t *testing.T) {
	opt := defaultOpt()
	opt.CacheBytes = 8 * opt.PageSize
	opt.Cleaner = true
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	dirty := pattern(4*16<<10, 7)
	h.write(t, "/w", make([]byte, len(dirty)))
	h.write(t, "/fill", pattern(3*16<<10, 8))

	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, dirty, 0); err != nil {
			return err
		}
		fill, err := fs.Open(b, "/fill", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 3*16<<10)
		_, err = fs.Read(b, fill, buf, 0)
		return err
	})
	if free := fs.cache.FreeFrames(); free >= fs.cleaner.low {
		t.Fatalf("setup left %d free frames, want < low watermark %d", free, fs.cleaner.low)
	}

	fs.maybeClean(0)

	cs := fs.CacheStats()
	if cs.CleanerKicks == 0 {
		t.Error("low watermark did not kick the cleaner")
	}
	if cs.CleanedPages != 4 {
		t.Errorf("CleanedPages = %d, want 4", cs.CleanedPages)
	}
	if got := h.read(t, "/w"); !bytes.Equal(got, dirty) {
		t.Error("cleaner write-back did not reach the host")
	}
	// Cleaning is in place: the pages stay resident for the open file.
	if free := fs.cache.FreeFrames(); free != 1 {
		t.Errorf("in-place cleaning changed the pool: %d free", free)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		// The pages are clean now: gfsync has nothing to flush and no
		// deferred error to report.
		return fs.Fsync(b, fd)
	})
}

// TestCleanerPreEvictsClosedDirty: closed files are the cleaner's
// cheapest victims, but only their DIRTY pages are pre-evicted — clean
// frames stay resident for a future reopen.
func TestCleanerPreEvictsClosedDirty(t *testing.T) {
	opt := defaultOpt()
	opt.CacheBytes = 8 * opt.PageSize
	opt.Cleaner = true
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	dirty := pattern(4*16<<10, 9)
	h.write(t, "/c", make([]byte, len(dirty)))
	h.write(t, "/fill", pattern(3*16<<10, 10))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/c", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, dirty, 0); err != nil {
			return err
		}
		if err := fs.Close(b, fd); err != nil { // deferred write-back: stays dirty
			return err
		}
		fill, err := fs.Open(b, "/fill", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 3*16<<10)
		_, err = fs.Read(b, fill, buf, 0)
		return err
	})

	fs.maybeClean(0)

	// free was 1, high is 4: the pass pre-evicts 3 dirty closed-file
	// pages (write-back + release) and stops at the high watermark.
	cs := fs.CacheStats()
	if cs.CleanedPages != 3 {
		t.Errorf("CleanedPages = %d, want 3", cs.CleanedPages)
	}
	if free := fs.cache.FreeFrames(); free != fs.cleaner.high {
		t.Errorf("pool recovered to %d free, want high watermark %d", free, fs.cleaner.high)
	}
	// The data must round-trip regardless of which pages were evicted.
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/c", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		got := make([]byte, len(dirty))
		if _, err := fs.Read(b, fd, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, dirty) {
			t.Error("closed-file data corrupted by pre-eviction")
		}
		return nil
	})
}

// TestCleanerDeferredWriteError: a cleaner write-back failure must follow
// POSIX deferred-error semantics — recorded sticky on the file, surfaced
// at the next gfsync, page left dirty and resident so no data is lost.
func TestCleanerDeferredWriteError(t *testing.T) {
	opt := defaultOpt()
	opt.CacheBytes = 8 * opt.PageSize
	opt.Cleaner = true
	h := newFaultHarness(t, opt, faults.Config{Seed: 1, HostWriteEIOProb: 1.0}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)

	dirty := pattern(4*16<<10, 11)
	h.write(t, "/w", make([]byte, len(dirty)))
	h.write(t, "/fill", pattern(3*16<<10, 12))

	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, dirty, 0); err != nil {
			return err
		}
		fill, err := fs.Open(b, "/fill", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 3*16<<10)
		_, err = fs.Read(b, fill, buf, 0)
		return err
	})

	h.inj.SetEnabled(true)
	fs.maybeClean(0) // every write-back fails with EIO
	h.inj.SetEnabled(false)

	if cs := fs.CacheStats(); cs.CleanedPages != 0 {
		t.Errorf("CleanedPages = %d after all-EIO pass", cs.CleanedPages)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		if err := fs.Fsync(b, fd); err == nil {
			t.Error("gfsync after failed cleaner write-back returned nil")
		}
		// errseq: reported once, then cleared; the data itself was never
		// lost, so a retried sync succeeds cleanly.
		if err := fs.Fsync(b, fd); err != nil {
			t.Errorf("second gfsync: %v", err)
		}
		return nil
	})
	if got := h.read(t, "/w"); !bytes.Equal(got, dirty) {
		t.Error("dirty data lost after failed cleaner write-back")
	}
}
