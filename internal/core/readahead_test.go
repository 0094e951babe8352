package core

import (
	"bytes"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
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
		if n := fs.evictFromFile(fs.blockActor(b), victims[0], pages, false); n != pages {
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
	opt.CleanerWorkers = 1
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
	opt.CleanerWorkers = 1
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
	opt.CleanerWorkers = 1
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
