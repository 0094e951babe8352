package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime/simtest"
)

// The composite steps of page.go that no other test drives directly.

// slotOf returns the slot of page idx of the open file fd, which must be
// materialized.
func slotOf(t *testing.T, fs *FS, fd int, idx uint64) (*fileCache, *radix.FPage) {
	t.Helper()
	fc := fs.ft.fds[fd].fc
	fp := fc.tree.LookupLocked(idx)
	if fp == nil {
		t.Fatalf("page %d has no slot", idx)
	}
	return fc, fp
}

// TestPutBackKeepsThePage: an eviction whose write-back fails changes its
// mind, and the page must come out of it exactly as it went in — Ready,
// dirty, resident, unreferenced, counted once — so that the next pass can
// evict it for real and the bytes reach the host.
func TestPutBackKeepsThePage(t *testing.T) {
	const pages = 4
	opt := defaultOpt()
	h := newFaultHarness(t, opt, faults.Config{Seed: 1, HostWriteEIOProb: 1.0}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	dirty := pattern(pages*int(opt.PageSize), 5)
	h.write(t, "/w", make([]byte, len(dirty)))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, dirty, 0); err != nil {
			return err
		}
		fc, _ := slotOf(t, fs, fd, 0)
		v := victim{fc: fc, hostFd: fs.ft.fds[fd].hostFd, class: 2}
		free := fs.cache.FreeFrames()

		h.inj.SetEnabled(true) // every write-back fails with EIO
		n := fs.evictFromFile(fs.blockActor(b), v, pages, evictAny)
		h.inj.SetEnabled(false)
		if n != 0 {
			t.Errorf("reclaimed %d pages whose write-back failed", n)
		}
		if got := fc.frames.Load(); got != pages {
			t.Errorf("fc.frames = %d after put-back, want %d", got, pages)
		}
		if got := fs.cache.FreeFrames(); got != free {
			t.Errorf("free frames = %d after put-back, want %d", got, free)
		}
		for idx := uint64(0); idx < pages; idx++ {
			_, fp := slotOf(t, fs, fd, idx)
			if !fp.Ready() || fp.Refs() != 0 || fp.Frame() < 0 {
				t.Fatalf("page %d after put-back: ready=%v refs=%d frame=%d", idx, fp.Ready(), fp.Refs(), fp.Frame())
			}
			if fr := fs.cache.Frame(fp.Frame()); !fr.Dirty.Load() || !fr.Matches(fc.tree.ID(), int64(idx)*opt.PageSize) {
				t.Errorf("page %d after put-back: dirty=%v, or its frame changed hands", idx, fr.Dirty.Load())
			}
		}
		if fc.takeWriteErr() == nil {
			t.Error("the failed write-back left no deferred error on the file")
		}

		if n := fs.evictFromFile(fs.blockActor(b), v, pages, evictAny); n != pages {
			t.Errorf("second pass reclaimed %d of %d put-back pages", n, pages)
		}
		if got := fc.frames.Load(); got != 0 {
			t.Errorf("fc.frames = %d after eviction", got)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/w"); !bytes.Equal(got, dirty) {
		t.Error("dirty data lost between the failed eviction and the one that worked")
	}
}

// TestReclaimCountsWastedSpeculation: reclaiming a prefetched page nobody
// consumed is the one event behind prefetch_wasted and the specPending gauge,
// and each moves by exactly one; a demand-faulted page moves neither. Both
// pages lie past the head the open carries, which stays resident.
func TestReclaimCountsWastedSpeculation(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	span := maxHostIO / opt.PageSize
	h.write(t, "/a", pattern(int(maxHostIO+2*opt.PageSize), 3))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		f := fs.ft.fds[fd]
		head := fs.specPending.Load()
		fs.spanFetch(b, f, span, 1, 1, pcache.SpecPending)
		if _, err := fs.Read(b, fd, make([]byte, opt.PageSize), (span+1)*opt.PageSize); err != nil {
			return err
		}
		if got := fs.specPending.Load() - head; got != 1 {
			t.Fatalf("specPending = %d after one speculative page", got)
		}
		for i, speculative := range []bool{true, false} {
			idx := span + int64(i)
			fc, fp := slotOf(t, fs, fd, uint64(idx))
			fr := fs.beginEvict(fp)
			if fr == nil {
				t.Fatalf("page %d not evictable", idx)
			}
			wasted, pending := fs.prefetchWasted.Load(), fs.specPending.Load()
			if got := fs.reclaim(b.Clock, fc, fp, fr, true); got != speculative {
				t.Errorf("reclaim(page %d) reported wasted=%v", idx, got)
			}
			var want int64
			if speculative {
				want = 1
			}
			if d := fs.prefetchWasted.Load() - wasted; d != want {
				t.Errorf("page %d: prefetch_wasted moved by %d, want %d", idx, d, want)
			}
			if d := pending - fs.specPending.Load(); d != want {
				t.Errorf("page %d: specPending fell by %d, want %d", idx, d, want)
			}
			if !fp.Empty() || fr.FileID.Load() != 0 {
				t.Errorf("page %d not empty and free after reclaim", idx)
			}
		}
		if got := f.fc.prefetchWasted.Load(); got != 1 {
			t.Errorf("the file's own wasted count = %d, want 1", got)
		}
		return fs.Close(b, fd)
	})
	if free := fs.cache.FreeFrames(); int64(free) != int64(fs.cache.NumFrames())-span {
		t.Errorf("%d of %d frames free after reclaiming everything but the head", free, fs.cache.NumFrames())
	}
}

// TestHoldRefusesRecycledFrame: the tree walks are best-effort, and what
// keeps them honest is hold's identity check — a slot whose frame now
// belongs to another file yields nothing and keeps no reference.
func TestHoldRefusesRecycledFrame(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/a", pattern(int(opt.PageSize), 3))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		if _, err := fs.Read(b, fd, make([]byte, opt.PageSize), 0); err != nil {
			return err
		}
		fc, fp := slotOf(t, fs, fd, 0)
		fr := fs.cache.Frame(fp.Frame())

		if got := fs.hold(fc, fp); got != fr || fp.Refs() != 1 {
			t.Fatalf("hold of a resident page = %v with %d refs, want its frame and one", got, fp.Refs())
		}
		fp.Unref()

		fr.FileID.Store(fc.tree.ID() + 1) // the frame changed hands
		if got := fs.hold(fc, fp); got != nil || fp.Refs() != 0 {
			t.Errorf("hold of a recycled frame = %v with %d refs, want nothing held", got, fp.Refs())
		}
		fr.FileID.Store(fc.tree.ID())
		return fs.Close(b, fd)
	})
}

// TestWriteBackAllocatesNoPageBuffer: write-back snapshots a page through a
// buffer recycled across walks and the daemon writes the snapshot as it is, so
// at steady state dirtying and syncing a page allocates the RPC's frame, call
// and clocks — a small fraction of the page, where an unpooled write-back
// would copy the page afresh.
func TestWriteBackAllocatesNoPageBuffer(t *testing.T) {
	opt := defaultOpt()
	opt.PageSize = 64 << 10
	opt.BufferCacheBytes = 8 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/w", make([]byte, opt.PageSize))
	page := pattern(int(opt.PageSize), 3)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		dirtyAndSync := func() error {
			if _, err := fs.Write(b, fd, page, 0); err != nil {
				return err
			}
			return fs.Fsync(b, fd)
		}
		if err := dirtyAndSync(); err != nil {
			return err
		}
		const rounds = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			if err := dirtyAndSync(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		// One pooled buffer per walk, sized for a whole run.
		bound := opt.PageSize/8 + simtest.PoolSlack(max(maxHostIO, opt.PageSize))
		if perPage := int64(after.TotalAlloc-before.TotalAlloc) / rounds; perPage >= bound {
			t.Errorf("writing back a page allocates %d B at steady state, want < %d (the page is %d)", perPage, bound, opt.PageSize)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/w"); !bytes.Equal(got, page) {
		t.Error("the page did not reach the host")
	}
}

// TestGatheredWriteBackAllocations: a gfsync of k adjacent dirty pages that
// fit in one run allocates what a one-page gfsync does — the RPC's frame, call
// and clocks — plus the call's copy of the k-segment vector; the snapshots
// share one pooled buffer and the run lives on the walk. The per-page
// write-back this replaced made 41 allocations for 8 pages.
func TestGatheredWriteBackAllocations(t *testing.T) {
	opt := defaultOpt()
	k := int(maxHostIO / opt.PageSize)
	gfsync := func(pages int) (allocs float64) {
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/w", make([]byte, pages*int(opt.PageSize)))
		data := pattern(pages*int(opt.PageSize), 3)
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/w", O_RDWR)
			if err != nil {
				return err
			}
			allocs = testing.AllocsPerRun(200, func() {
				if _, err := fs.Write(b, fd, data, 0); err != nil {
					t.Error(err)
				}
				if err := fs.Fsync(b, fd); err != nil {
					t.Error(err)
				}
			})
			return fs.Close(b, fd)
		})
		if got := h.read(t, "/w"); !bytes.Equal(got, data) {
			t.Errorf("%d pages: the host does not hold the written bytes", pages)
		}
		return allocs
	}
	slack := 0.0
	if simtest.Race() {
		slack = 2 // both pools' dropped Puts, a quarter of the time each
	}
	one, run := gfsync(1), gfsync(k)
	if run > one+1+slack {
		t.Errorf("gfsync of %d adjacent pages makes %.0f allocations, one page %.0f: want at most one more, the vector's copy", k, run, one)
	}
}

// TestQueuedPageOutlivesItsRun: a page queued in a run keeps its WriteBack
// lock and the walk's reference on it until the run is issued. Before then
// its write-back is not even in flight and its dirty flag is already clear: an
// evictor that could take the page would find it clean with no write to wait
// for, and hand the frame — the source of the write still to come — to a new
// tenant.
func TestQueuedPageOutlivesItsRun(t *testing.T) {
	const k = 2
	opt := defaultOpt()
	ps := int(opt.PageSize)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/q", make([]byte, k*ps))
	want := pattern(k*ps, 4)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/q", O_RDWR)
		if err != nil {
			return err
		}
		gwrite(t, fs, b, fd, want, 0)
		f := fs.ft.fds[fd]
		wb := writeBack{fs: fs, a: fs.blockActor(b), fc: f.fc, hostFd: f.hostFd}
		writes := h.server.Requests(rpc.OpWritePages)
		var frs [k]*pcache.Frame
		var fps [k]*radix.FPage
		for i := range frs {
			_, fps[i] = slotOf(t, fs, fd, uint64(i))
			if frs[i] = fs.hold(f.fc, fps[i]); frs[i] == nil {
				t.Fatalf("page %d not resident", i)
			}
			if err := wb.frame(frs[i], fps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.server.Requests(rpc.OpWritePages) - writes; got != 0 {
			t.Fatalf("%d writes issued while the run was still open", got)
		}
		for i, fp := range fps {
			if fp.Refs() != 1 {
				t.Errorf("queued page %d has %d references before its run is issued, want the walk's 1", i, fp.Refs())
			}
			if frs[i].Dirty.Load() {
				t.Errorf("queued page %d still dirty: the flag clears at snapshot", i)
			}
			if fr := fs.beginEvict(fp); fr != nil {
				t.Errorf("an evictor took queued page %d before its write was issued", i)
				cancelEvict(fp)
			}
			if frs[i].WriteBack.TryLock() {
				t.Errorf("queued page %d's write-back lock is free before its run is issued", i)
				frs[i].WriteBack.Unlock()
			}
		}
		if err := wb.done(); err != nil {
			t.Fatal(err)
		}
		if got := h.server.Requests(rpc.OpWritePages) - writes; got != 1 {
			t.Errorf("%d adjacent pages went out in %d writes, want 1", k, got)
		}
		for i, fp := range fps {
			free := frs[i].WriteBack.TryLock()
			if free {
				frs[i].WriteBack.Unlock()
			}
			if fp.Refs() != 0 || !free {
				t.Errorf("page %d after its run was issued: %d references, write-back lock free=%v; want 0 and free", i, fp.Refs(), free)
			}
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/q"); !bytes.Equal(got, want) {
		t.Error("the host does not hold the run's bytes")
	}
	h.checkDirtyCounts(t)
}

// poolState is everything an allocation leaves behind in the frame pool: the
// free frames of every shard, top of its list first (read by draining the pool
// from lane 0, which empties shard 0, then steals 1, 2, … in ring order, and
// handing the frames back newest first), and the counters.
type poolState struct {
	Free                      []int32
	Allocs, Steals, Reclaimed int64
}

func poolOf(t *testing.T, c *pcache.Cache) poolState {
	t.Helper()
	s := poolState{Allocs: c.Allocs(), Steals: c.Steals(), Reclaimed: c.Reclaimed()}
	var taken []*pcache.Frame
	for fr := c.TryAllocOn(0, 1, 0); fr != nil; fr = c.TryAllocOn(0, 1, 0) {
		s.Free = append(s.Free, fr.Index)
		taken = append(taken, fr)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		c.Unalloc(0, taken[i])
	}
	if c.Allocs() != s.Allocs || c.Steals() != s.Steals || c.FreeFrames() != len(s.Free) {
		t.Fatalf("draining and refilling the pool moved its counters: %d allocs, %d steals, %d free; were %d, %d, %d",
			c.Allocs(), c.Steals(), c.FreeFrames(), s.Allocs, s.Steals, len(s.Free))
	}
	return s
}

// TestEmptyOfferLeavesNoTrace: a host open offers frames for the file to ride
// in on, and an offer that comes back empty — the file is larger than the offer,
// is being truncated, is write-once, resolves to the closed table's cache, or
// there was no frame to offer — must leave the machine as an open that offered
// nothing leaves it. Two things remember otherwise: the radix tree (a slot
// claimed at offer time materializes its leaf, and leaf age is eviction's FIFO
// order) and the allocator (each shard's list is a LIFO, and the benchmark
// reads pages faulted off its counters). Each open below offers and comes back
// empty; the pool, the file's tree, its resident count and the carried-page
// count must read the same the moment the open returns as just before it.
//
// It runs in the dead zone (32 KiB pages), where no open asks for the head:
// elsewhere a file larger than the offer rides in as its head, and a dry pool
// reclaims closed clean pages for it — the one trace an offer may leave,
// which TestHeadCarryFromADryPool pins.
func TestEmptyOfferLeavesNoTrace(t *testing.T) {
	type state struct {
		Pool     poolState
		Leaves   int
		Resident int64
		Filled   int64
	}
	opt := defaultOpt()
	opt.PageSize = raDeadPage // 32 frames over 4 shards
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	stateOf := func(path string) state {
		s := state{Pool: poolOf(t, fs.cache), Resident: fs.ResidentPages(path), Filled: fs.openFilled.Load()}
		if fc := fs.ft.cacheOf(path); fc != nil {
			s.Leaves = fc.tree.Leaves()
		}
		return s
	}
	big := pattern(int(max(maxHostIO, opt.PageSize)+opt.PageSize), 9) // one page more than an offer
	for _, path := range []string{"/big", "/trunc", "/warm", "/fill", "/late", "/later"} {
		h.write(t, path, big)
	}

	// open opens path, compares the state around the open, faults the given
	// pages in one by one and closes.
	open := func(path string, flags int, pages ...int64) {
		h.run(t, 0, func(b *gpu.Block) error {
			before := stateOf(path)
			fd, err := fs.Open(b, path, flags)
			if err != nil {
				return err
			}
			if after := stateOf(path); !reflect.DeepEqual(before, after) {
				t.Errorf("open of %s with flags %#x left\n%+v\nwhere it found\n%+v", path, flags, after, before)
			}
			f := fs.ft.fds[fd]
			for _, idx := range pages {
				ref, _, err := fs.getPage(b, f, idx, nil)
				if err != nil {
					return err
				}
				ref.release()
			}
			return fs.Close(b, fd)
		})
	}
	open("/big", O_RDONLY)
	open("/trunc", O_RDWR|O_TRUNC)
	open("/once", O_GWRONCE|O_CREATE)
	open("/warm", O_RDONLY, 0)
	open("/warm", O_RDWR) // other flags: a host open, which adopt resolves to the cache just retired
	if got := fs.closedReuses.Load(); got != 1 {
		t.Fatalf("re-opening /warm reused %d closed caches, want 1", got)
	}
	// Leave one free frame, then none: the offer takes what there is.
	var fill []int64
	for i := int64(0); i < int64(fs.cache.FreeFrames())-1; i++ {
		fill = append(fill, i)
	}
	h.write(t, "/fill", make([]byte, (len(fill)+1)*int(opt.PageSize)))
	open("/fill", O_RDONLY, fill...)
	open("/late", O_RDONLY)
	open("/fill", O_RDONLY, int64(len(fill)))
	open("/later", O_RDONLY)
	if free, reclaimed := fs.cache.FreeFrames(), fs.cache.Reclaimed(); free != 0 || reclaimed != 0 {
		t.Fatalf("%d frames free and %d reclaimed with the pool filled to the brim, want 0 and 0: an open evicted", free, reclaimed)
	}

	// The gate does open: the same machine carries a file that fits.
	h = newHarness(t, 1, opt)
	h.write(t, "/small", pattern(int(opt.PageSize), 2))
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := h.fss[0].Open(b, "/small", O_RDONLY)
		if err != nil {
			return err
		}
		return h.fss[0].Close(b, fd)
	})
	if got := h.fss[0].openFilled.Load(); got != 1 {
		t.Errorf("a one-page file's open carried %d pages, want 1: the opens above offered nothing", got)
	}
}
