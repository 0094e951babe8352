package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
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
	opt.BufferCacheBytes = 192 * opt.PageSize
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

// TestFetchBudgetScaling covers the planner's budget rule: a batch gets the
// full cap with a healthy pool, half the free frames when nearly drained,
// zero when empty (demand faults keep absolute priority); an open gets every
// free frame. With no closed file holding clean pages a guess's budget is the
// batch's.
func TestFetchBudgetScaling(t *testing.T) {
	opt := defaultOpt() // 64 frames
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	check := func(free, want int64) {
		t.Helper()
		if got := fs.budget(onBatch); got != want {
			t.Fatalf("%d free: batch budget = %d, want %d", free, got, want)
		}
		for _, tr := range []trigger{onFault, onRefill, onReplay} {
			if got := fs.budget(tr); got != want {
				t.Fatalf("%d free: guess %d budget = %d, want %d", free, tr, got, want)
			}
		}
		if got := fs.budget(onOpen); got != free {
			t.Fatalf("%d free: open budget = %d, want %d", free, got, free)
		}
	}

	check(64, maxBatchFetch)
	// Drain to 20 free: below the 2*cap threshold, budget = free/2.
	for i := 0; i < 44; i++ {
		if fs.cache.TryAllocOn(0, 99, int64(i)*opt.PageSize) == nil {
			t.Fatal("TryAlloc failed with free frames available")
		}
	}
	check(20, 10)
	// Drain to 1 and then 0: budget hits zero before the pool does.
	for i := 44; i < 63; i++ {
		fs.cache.TryAllocOn(0, 99, int64(i)*opt.PageSize)
	}
	check(1, 0)
	fs.cache.TryAllocOn(0, 99, 63*opt.PageSize)
	check(0, 0)
}

// TestSpeculationGate: one gate decides which of the five routes may fetch
// ahead of demand. The prototype batches a multi-page read and nothing else;
// the extended system runs every route but stays out of the dead zone with
// its guesses; an open never carries a file it truncates; and nothing is
// fetched ahead for a file opened write-only or write-once. A host open asks for its file's
// head where the gate admits the open and a guess both, and an open-ahead
// never does.
func TestSpeculationGate(t *testing.T) {
	all := []trigger{onOpen, onFault, onRefill, onReplay, onBatch}
	only := func(ts ...trigger) map[trigger]bool {
		m := map[trigger]bool{}
		for _, tr := range ts {
			m[tr] = true
		}
		return m
	}
	for _, c := range []struct {
		name  string
		opt   Options
		ps    int64
		flags int
		want  map[trigger]bool
		head  bool
	}{
		{"prototype", prototypeOpt(), 16 << 10, O_RDONLY, only(onBatch), false},
		{"extended", defaultOpt(), 16 << 10, O_RDONLY, only(all...), true},
		{"extended/rdwr", defaultOpt(), 16 << 10, O_RDWR, only(all...), true},
		{"extended/32K", defaultOpt(), 32 << 10, O_RDONLY, only(onOpen, onBatch), false},
		{"extended/64K", defaultOpt(), 64 << 10, O_RDONLY, only(all...), true},
		{"extended/trunc", defaultOpt(), 16 << 10, O_RDWR | O_TRUNC, only(onFault, onRefill, onReplay, onBatch), false},
		{"extended/wronly", defaultOpt(), 16 << 10, O_WRONLY, only(), false},
		{"extended/gwronce", defaultOpt(), 16 << 10, O_GWRONCE, only(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := c.opt
			opt.PageSize = c.ps
			opt.BufferCacheBytes = 64 * c.ps
			h := newHarness(t, 1, opt)
			fs := h.fss[0]
			h.write(t, "/f", pattern(int(4*c.ps), 1))
			h.run(t, 0, func(b *gpu.Block) error {
				fd, err := fs.Open(b, "/f", c.flags)
				if err != nil {
					return err
				}
				f := fs.ft.fds[fd]
				for _, tr := range all {
					if got := fs.ahead(tr, f); got != c.want[tr] {
						t.Errorf("trigger %d: gate %v, want %v", tr, got, c.want[tr])
					}
					if n := fs.plan(tr, f, 1, 2, 1, 0); n != 0 && !c.want[tr] {
						t.Errorf("trigger %d: planned %d pages past a shut gate", tr, n)
					}
				}
				if _, _, head := fs.openPlan(f, true); head != c.head {
					t.Errorf("a host open asks for the head: %v, want %v", head, c.head)
				}
				if _, _, head := fs.openPlan(f, false); head {
					t.Error("an open-ahead asks for the head")
				}
				return fs.Close(b, fd)
			})
		})
	}
}

// TestPrefetchNeverEvictsFullCache: speculation aborts rather than paging
// out resident data — with the pool 100% occupied, spanFetch (adjacent or
// strided) must allocate nothing and evict nothing.
func TestPrefetchNeverEvictsFullCache(t *testing.T) {
	opt := defaultOpt() // 64 frames of 16K
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/a", pattern(int(opt.BufferCacheBytes), 3)) // exactly fills the pool
	h.write(t, "/b", pattern(4*16<<10, 4))

	h.run(t, 0, func(b *gpu.Block) error {
		fdA, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fdA)
		buf := make([]byte, opt.BufferCacheBytes)
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
		allocs, issued := fs.cache.Allocs(), fs.CacheStats().PrefetchIssued
		fs.spanFetch(b, fB, 0, 4, 1, pcache.SpecPending)
		fs.spanFetch(b, fB, 0, 2, 2, pcache.SpecPending)
		if got := fs.cache.Allocs(); got != allocs {
			t.Errorf("speculation allocated %d frames from a full pool", got-allocs)
		}
		if free := fs.cache.FreeFrames(); free != 0 {
			t.Errorf("speculation evicted: %d frames freed", free)
		}
		// Counted from after the opens: /a's carried its head.
		if got := fs.CacheStats().PrefetchIssued - issued; got != 0 {
			t.Errorf("PrefetchIssued = %d under a full cache", got)
		}
		return nil
	})
}

// TestSpeculationTakesClosedPages: a confirmed stream that finds the pool dry
// reclaims clean pages of closed files for its window — oldest retirement
// first and, within the file, oldest leaf first — and nothing else. The pool
// holds one dirty page of the oldest closed file, a newer closed file that is
// all clean (its lower leaf holds the head its open carried, so it is the
// older leaf though its upper half is read first), an open file's pages, and
// the first six pages of a reader's file, which the reader's open carries in
// as its head with the last free frames; the reader's first gread confirms the
// stride with no frame left. The cleaner's lane is held busy throughout, as while it runs
// a pass for an earlier kick, so the dirty page stays for speculation to meet:
// the reader's demand faults come with the pool below the low watermark, and
// any pass they kicked would pre-evict it.
// At the parent speculation issued nothing from there, and the reader's
// demand faults evicted the dirty page first, with a write.
func TestSpeculationTakesClosedPages(t *testing.T) {
	const (
		cleanPages  = 128 // two leaves
		openPages   = 25
		readerPages = 32
		warmPages   = 6 // the reader's pages in the pool when its stride confirms
	)
	opt := defaultOpt()
	opt.BufferCacheBytes = (1 + cleanPages + openPages + warmPages) * opt.PageSize
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	fs.cleaner.busy.Store(true)
	tr := trace.New(1 << 12)
	tr.Enable(true)
	fs.SetTracer(tr)
	h.write(t, "/dirty", pattern(int(ps), 1))
	h.write(t, "/clean", pattern(cleanPages*int(ps), 2))
	h.write(t, "/open", pattern(openPages*int(ps), 3))
	want := pattern(readerPages*int(ps), 4)
	h.write(t, "/reader", want)

	half := int64(cleanPages / 2)
	var closedHeld, issued int64
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
		if free := fs.cache.FreeFrames(); free != 0 || fs.ResidentPages("/reader") != warmPages {
			t.Fatalf("the reader's open left %d frames free and carried %d pages, want none and %d", free, fs.ResidentPages("/reader"), warmPages)
		}
		issued = fs.CacheStats().PrefetchIssued
		got := make([]byte, 2*ps)
		for p := int64(0); p < readerPages; p += 2 {
			if _, err := fs.Read(b, fd, got, p*ps); err != nil {
				return err
			}
			if !bytes.Equal(got, want[p*ps:(p+2)*ps]) {
				t.Errorf("pages %d-%d: wrong bytes", p, p+1)
			}
		}
		return fs.Close(b, fd)
	})

	if closedHeld != cleanPages {
		t.Errorf("the closed table counted %d clean pages, want the clean file's %d", closedHeld, cleanPages)
	}
	cs := fs.CacheStats()
	if want := int64(readerPages - warmPages); cs.PrefetchIssued-issued != want || cs.SpecReclaimed != want {
		t.Errorf("speculation issued %d pages past the reader's head and reclaimed %d, want the reader's last %d both", cs.PrefetchIssued-issued, cs.SpecReclaimed, want)
	}
	if got := fs.Cache().Reclaimed(); got != cs.SpecReclaimed {
		t.Errorf("%d pages reclaimed, %d of them by speculation: a demand fault evicted", got, cs.SpecReclaimed)
	}
	// Reclaiming one page at a time must not split the window into 1-page
	// RPCs: each span coalesces, up to one host transaction.
	for _, e := range tr.Snapshot() {
		if e.Op == trace.OpPrefetch && (e.Bytes < 2*ps || e.Bytes > max(maxHostIO, 2*ps)) {
			t.Errorf("a speculative span of %d bytes at %d, want two pages to %d bytes", e.Bytes, e.Offset, max(maxHostIO, 2*ps))
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
	// head of its lower half.
	fc := fs.ft.cacheOf("/clean")
	for p := int64(0); p < cleanPages; p++ {
		fp, _ := fc.tree.LookupLeaf(uint64(p))
		gone := p < cs.SpecReclaimed
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
	opt.BufferCacheBytes = blocks * pages / 4 * opt.PageSize
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

// TestReadAheadDeadZone: a confirmed sequential gread stream speculates
// nothing at 32K pages, the measured dead zone, which stands apart from the
// host-I/O bound; at 16K and 64K pages its spans coalesce up to one host
// transaction, maxHostIO/PageSize pages, and no further.
func TestReadAheadDeadZone(t *testing.T) {
	const pages = 48
	for _, ps := range []int64{16 << 10, 32 << 10, 64 << 10} {
		t.Run(fmt.Sprintf("%dK", ps>>10), func(t *testing.T) {
			opt := defaultOpt()
			opt.PageSize = ps
			opt.BufferCacheBytes = 64 * ps // the 64-frame pool geometry: nothing is evicted
			h := newHarness(t, 1, opt)
			fs := h.fss[0]
			tr := trace.New(1 << 12)
			tr.Enable(true)
			fs.SetTracer(tr)
			want := pattern(pages*int(ps), 5)
			h.write(t, "/seq", want)
			h.run(t, 0, func(b *gpu.Block) error {
				fd, err := fs.Open(b, "/seq", O_RDONLY)
				if err != nil {
					return err
				}
				buf := make([]byte, ps)
				for p := int64(0); p < pages; p++ {
					if _, err := fs.Read(b, fd, buf, p*ps); err != nil {
						return err
					}
					if !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
						t.Errorf("page %d: wrong bytes", p)
					}
				}
				return fs.Close(b, fd)
			})
			var widest int64
			for _, e := range tr.Snapshot() {
				if e.Op == trace.OpPrefetch {
					widest = max(widest, e.Bytes)
				}
			}
			issued := fs.CacheStats().PrefetchIssued
			if ps == 32<<10 {
				if issued != 0 {
					t.Errorf("PrefetchIssued = %d in the dead zone, want 0", issued)
				}
				return
			}
			if issued == 0 || widest != maxHostIO {
				t.Errorf("%d pages speculated, widest span %d pages; want spans of %d pages",
					issued, widest/ps, maxHostIO/ps)
			}
		})
	}
}

// TestOpenMakesNoDetectorSlotUntilAStreamReads: an open allocates a detector
// slot, and the file's array of slots, only for a stream that reads ahead.
// Reopening a cached file in the dead zone makes neither and allocates well
// under one slot array per cycle; a one-block reader at 16K makes its own
// slot and no other; and two blocks that hash to one slot and race their
// first access share one array and one slot.
func TestOpenMakesNoDetectorSlotUntilAStreamReads(t *testing.T) {
	noSlots := func(f *file, except int) error {
		if arr := f.ra.Load(); (arr != nil) != (except >= 0) {
			return fmt.Errorf("the file's slot array is %p, want one only with a slot at %d", arr, except)
		}
		for i := range raStreams {
			if st := f.stream(i); (st != nil) != (i == except) {
				return fmt.Errorf("slot %d is %p, want a slot only at %d", i, st, except)
			}
		}
		return nil
	}
	t.Run("dead zone", func(t *testing.T) {
		opt := defaultOpt()
		opt.PageSize = raDeadPage
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/dz", pattern(int(2*opt.PageSize), 1))
		buf := make([]byte, opt.PageSize)
		cycle := func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/dz", O_RDONLY)
			if err != nil {
				return err
			}
			for p := int64(0); p < 2; p++ {
				if _, err := fs.Read(b, fd, buf, p*opt.PageSize); err != nil {
					return err
				}
			}
			if err := noSlots(fs.ft.fds[fd], -1); err != nil {
				t.Error(err)
			}
			return fs.Close(b, fd)
		}
		h.run(t, 0, func(b *gpu.Block) error {
			if err := cycle(b); err != nil { // the file comes in cached
				return err
			}
			const cycles = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range cycles {
				if err := cycle(b); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle >= 512 {
				t.Errorf("an open/gread/close cycle of a cached file allocates %d B, want < 512 (a slot array is 256)", perCycle)
			}
			return nil
		})
	})
	t.Run("one block", func(t *testing.T) {
		opt := defaultOpt()
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/one", pattern(int(4*maxHostIO), 2))
		const reader = 5
		h.runBlocks(t, 0, 8, func(b *gpu.Block) error {
			if b.Idx != reader {
				return nil
			}
			fd, err := fs.Open(b, "/one", O_RDONLY)
			if err != nil {
				return err
			}
			greadAt(t, fs, b, fd, opt.PageSize, maxHostIO)
			if err := noSlots(fs.ft.fds[fd], reader); err != nil {
				t.Error(err)
			}
			return fs.Close(b, fd)
		})
	})
	t.Run("shared slot", func(t *testing.T) {
		for range 200 {
			var f file
			var got [2]*raStream
			var wg sync.WaitGroup
			for i, idx := range []int{3, 3 + raStreams} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = f.streamFor(idx)
				}()
			}
			wg.Wait()
			if got[0] != got[1] || f.stream(3) != got[0] {
				t.Fatalf("blocks 3 and %d made slots %p and %p; the file holds %p", 3+raStreams, got[0], got[1], f.stream(3))
			}
		}
	})
}

// TestAdaptiveRandomStaysQuiet: accesses with no repeated stride never
// clear the detector's confidence gate, so nothing is speculated past the
// open's one counted span, the head.
func TestAdaptiveRandomStaysQuiet(t *testing.T) {
	opt := defaultOpt()
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
	if cs, head := fs.CacheStats(), maxHostIO/opt.PageSize; cs.PrefetchIssued != head {
		t.Errorf("random access speculated %d pages past the open's %d", cs.PrefetchIssued-head, head)
	}
}

// TestCleanerCleansOpenDirtyInPlace: a low-watermark kick writes an open
// file's cold dirty pages back on the cleaner's own clock, leaving them
// resident and clean, and the counters record the pass.
func TestCleanerCleansOpenDirtyInPlace(t *testing.T) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize
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
	opt.BufferCacheBytes = 8 * opt.PageSize
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
	opt.BufferCacheBytes = 8 * opt.PageSize
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
