package core

import (
	"bytes"
	"reflect"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Golden cost tests for the read and write paths: what one cache hit, one
// page fault, one vectored fill (speculative over a dry pool too), one gwrite
// miss, one gfsync and one gftruncate cost in virtual time and in requests on
// an idle machine, with every expected value derived from Options and the
// rig's rpc, pcie and hostfs parameters (internal/gsys/cost_test.go pins the syscall below the fault
// the same way). A change to where a layer charges its time fails here by
// layer, before it moves an end-to-end number.

// devPass is one pass over n bytes of device memory.
func devPass(n int64) simtime.Duration {
	return simtime.TransferTime(n, rigDevMemBandwidth)
}

// warmRead is what the daemon and the link charge for moving n
// page-cache-resident bytes of one file extent into segs pinned frames: the
// pread (syscall plus one pass over the host memory bus), the scatter
// descriptors, the transfer, and the landing pass in device memory.
func warmRead(n int64, segs int) simtime.Duration {
	return rigHost.SyscallOverhead + simtime.TransferTime(n, rigHost.MemBandwidth) +
		rigBus.DMALatency/8*simtime.Duration(segs-1) +
		rigBus.DMALatency + simtime.TransferTime(n, rigBus.Bandwidth) +
		devPass(n)
}

// costRig stages a warm file of the given number of pages and runs fn as one
// block with the file open, well after the staging write's booking of the
// host memory bus at t=0, so the measured call finds every resource idle.
func costRig(t *testing.T, opt Options, pages int64, fn func(h *harness, b *gpu.Block, fd int)) {
	t.Helper()
	costRigFlags(t, opt, pages*opt.PageSize, O_RDONLY, fn)
}

// costRigFlags is costRig over a file of size bytes, opened as the write-path
// tests need.
func costRigFlags(t *testing.T, opt Options, size int64, flags int, fn func(h *harness, b *gpu.Block, fd int)) {
	t.Helper()
	h := newHarness(t, 1, opt)
	h.write(t, "/f", pattern(int(size), 1))
	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		fd, err := h.fss[0].Open(b, "/f", flags)
		if err != nil {
			return err
		}
		fn(h, b, fd)
		return h.fss[0].Close(b, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.checkDirtyCounts(t)
}

// elapsed runs fn and reports what it cost the block.
func elapsed(b *gpu.Block, fn func()) simtime.Duration {
	start := b.Clock.Now()
	fn()
	return b.Clock.Now().Sub(start)
}

// gread reads n bytes at offset 0, reporting a failed or short read.
func gread(t *testing.T, fs *FS, b *gpu.Block, fd int, n int64) { greadAt(t, fs, b, fd, n, 0) }

// greadAt reads n bytes at off, reporting a failed or short read.
func greadAt(t *testing.T, fs *FS, b *gpu.Block, fd int, n, off int64) {
	if got, err := fs.Read(b, fd, make([]byte, n), off); err != nil || int64(got) != n {
		t.Errorf("gread of %d bytes at %d: n=%d err=%v", n, off, got, err)
	}
}

// TestCostCacheHit: a hit is one lock-free lookup plus one device-memory
// pass over the bytes read in place; the prototype's copy costs exactly one
// more pass, and sends nothing to the host either way.
func TestCostCacheHit(t *testing.T) {
	hit := func(opt Options) (cost simtime.Duration) {
		costRig(t, opt, 1, func(h *harness, b *gpu.Block, fd int) {
			fs := h.fss[0]
			gread(t, fs, b, fd, opt.PageSize) // fault it in
			requests := h.server.TotalRequests()
			cost = elapsed(b, func() { gread(t, fs, b, fd, opt.PageSize) })
			if got := h.server.TotalRequests() - requests; got != 0 {
				t.Errorf("a cache hit sent %d requests to the host", got)
			}
		})
		return cost
	}
	opt := defaultOpt()
	inPlace, copying := hit(opt), hit(prototypeOpt())
	if want := opt.RadixLookupLockFree + devPass(opt.PageSize); inPlace != want {
		t.Errorf("in-place hit cost %v, want lookup + one device-memory pass = %v", inPlace, want)
	}
	if want := opt.RadixLookupLockFree + devPass(2*opt.PageSize); copying != want {
		t.Errorf("copying hit cost %v, want lookup + two device-memory passes = %v", copying, want)
	}
}

// TestCostPageFault: a demand fault is the lookup that missed, the
// single-page strong read, and the page's bookkeeping. The prototype (one
// allocator shard, not four) differs by the staging pass alone, which the DMA
// pays on the host memory bus. The file is one page more than an open
// carries, and the fault is on that page: the extended system's open carries
// the head before it.
func TestCostPageFault(t *testing.T) {
	fault := func(opt Options) (cost simtime.Duration) {
		span := maxHostIO / opt.PageSize
		costRig(t, opt, span+1, func(h *harness, b *gpu.Block, fd int) {
			fs := h.fss[0]
			reads := h.server.Requests(rpc.OpReadPages)
			cost = elapsed(b, func() {
				if ref, _, err := fs.getPage(b, fs.ft.fds[fd], span, nil); err != nil {
					t.Error(err)
				} else {
					ref.release()
				}
			})
			if got := h.server.Requests(rpc.OpReadPages) - reads; got != 1 {
				t.Errorf("one fault was %d read requests", got)
			}
		})
		return cost
	}
	opt := defaultOpt()
	ring := rigRPC.PollInterval + rigRPC.HandleCost + rigRPC.ReturnLatency
	want := opt.RadixLookupLockFree + ring + warmRead(opt.PageSize, 1) + opt.APICostPerPage
	if got := fault(opt); got != want {
		t.Errorf("fault cost %v, want lookup + ring cycle + warm read + API = %v", got, want)
	}
	staging := simtime.TransferTime(opt.PageSize, rigBus.HostMemBandwidth)
	if got := fault(prototypeOpt()) - want; got != staging {
		t.Errorf("the prototype's fault costs %v more, want exactly the staging pass %v", got, staging)
	}
}

// TestCostCarryingFault: a miss on the page right after its stream's last
// access carries the stream's window in its own read — ONE strong read of a
// whole host transaction: a ring cycle, the pread of maxHostIO, one DMA
// scattered over its pages — and costs the block, beside that and the lookup
// that missed, the fault's own API call and a claim per carried page. The
// carried pages are speculation: resident, counted as issued, not yet used.
// The stream starts past the head the open carried.
func TestCostCarryingFault(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	costRig(t, opt, 3*span, func(h *harness, b *gpu.Block, fd int) {
		fs, f := h.fss[0], h.fss[0].ft.fds[fd]
		greadAt(t, fs, b, fd, ps, span*ps) // a one-page fault, the stream's first access past the head
		reads, strong := h.server.Requests(rpc.OpReadPages), fs.sys.StrongCalls()
		issued := fs.CacheStats().PrefetchIssued
		cost := elapsed(b, func() {
			if ref, _, err := fs.getPage(b, f, span+1, nil); err != nil {
				t.Error(err)
			} else {
				ref.release()
			}
		})
		ring := rigRPC.PollInterval + rigRPC.HandleCost + rigRPC.ReturnLatency
		want := opt.RadixLookupLockFree + ring + warmRead(maxHostIO, int(span)) +
			opt.APICostPerPage + simtime.Duration(span-1)*fs.probeCost()
		if cost != want {
			t.Errorf("the carrying fault cost %v, want lookup + ring cycle + warm read of %d pages + API + %d claims = %v", cost, span, span-1, want)
		}
		if r, s := h.server.Requests(rpc.OpReadPages)-reads, fs.sys.StrongCalls()-strong; r != 1 || s != 1 {
			t.Errorf("the carrying fault was %d read requests, %d strong calls; want 1 and 1", r, s)
		}
		if cs := fs.CacheStats(); cs.PrefetchIssued-issued != span-1 || cs.PrefetchUsed != 0 {
			t.Errorf("%d pages issued, %d used; want the %d carried, none used yet", cs.PrefetchIssued-issued, cs.PrefetchUsed, span-1)
		}
		for idx := uint64(span + 2); idx <= uint64(2*span); idx++ {
			if fp, _ := f.fc.tree.LookupLeaf(idx); fp == nil || !fp.Ready() ||
				fs.cache.Frame(fp.Frame()).Spec.Load() != pcache.SpecPending {
				t.Errorf("page %d is not resident speculation after the carrying fault", idx)
			}
		}
	})
}

// TestCostColdScanTransactions: a cold page-by-page gread of a 32-page file at
// 16 KiB pages sends, in order, one open, which carries the file's head (pages
// 0 to span−1, speculation), then relaxed reads of whole spans until the file's
// tail: no strong read at all, and no read smaller than a span but the tail's.
func TestCostColdScanTransactions(t *testing.T) {
	const pages = 32
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	tr := trace.New(1 << 10)
	tr.Enable(true)
	fs.SetTracer(tr)
	h.write(t, "/scan", pattern(pages*int(ps), 3))

	type read struct {
		strong       bool
		first, pages int64
	}
	want := []read{{true, 0, span}}
	for p := span; p < pages; p += span {
		want = append(want, read{false, p, min(span, pages-p)})
	}
	var got []read
	h.run(t, 0, func(b *gpu.Block) error {
		requests := h.server.TotalRequests()
		fd, err := fs.Open(b, "/scan", O_RDONLY)
		if err != nil {
			return err
		}
		if opens, all := h.server.Requests(rpc.OpOpen), h.server.TotalRequests()-requests; opens != 1 || all != 1 {
			t.Errorf("the open was %d opens of %d requests, want 1 of 1", opens, all)
		}
		for _, e := range tr.Snapshot() {
			if e.Op == trace.OpPrefetch {
				got = append(got, read{true, e.Offset / ps, e.Bytes / ps})
			}
		}
		seen := len(tr.Snapshot())
		for p := int64(0); p < pages; p++ {
			strong, relaxed, reads := fs.sys.StrongCalls(), fs.sys.RelaxedCalls(), h.server.Requests(rpc.OpReadPages)
			greadAt(t, fs, b, fd, ps, p*ps)
			events := tr.Snapshot()
			var spans []trace.Event
			for _, e := range events[seen:] {
				if e.Op == trace.OpPrefetch {
					spans = append(spans, e)
				}
			}
			seen = len(events)
			s, r := fs.sys.StrongCalls()-strong, fs.sys.RelaxedCalls()-relaxed
			if s > 0 {
				carried := int64(0)
				if len(spans) > 0 && spans[0].Offset == (p+1)*ps {
					carried, spans = spans[0].Bytes/ps, spans[1:]
				}
				got = append(got, read{true, p, 1 + carried})
			}
			for _, e := range spans {
				got = append(got, read{false, e.Offset / ps, e.Bytes / ps})
			}
			if s > 1 || r != int64(len(spans)) || h.server.Requests(rpc.OpReadPages)-reads != s+r {
				t.Errorf("gread of page %d: %d strong and %d relaxed calls, %d read requests, %d speculative spans", p, s, r, h.server.Requests(rpc.OpReadPages)-reads, len(spans))
			}
		}
		return fs.Close(b, fd)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the scan's reads, as (strong, first page, pages):\n got %v\nwant %v", got, want)
	}
}

// TestCostVectoredFill: k adjacent cold pages are k claims and ONE call on
// the block's clock, one ring transaction, and one DMA whose completion
// every frame shares. The file is two spans, and the fill is the one past the
// head the open carries.
func TestCostVectoredFill(t *testing.T) {
	const k = 8
	opt := defaultOpt()
	opt.PageSize = maxHostIO / k
	costRig(t, opt, 2*k, func(h *harness, b *gpu.Block, fd int) {
		fs, f := h.fss[0], h.fss[0].ft.fds[fd]
		issued, reads := b.Clock.Now(), h.server.Requests(rpc.OpReadPages)
		cost := elapsed(b, func() { fs.spanFetch(b, f, k, k, 1, pcache.SpecNone) })

		if want := k*fs.probeCost() + opt.APICostPerPage; cost != want {
			t.Errorf("%d-page fill cost the block %v, want %d claims + one API call = %v", k, cost, k, want)
		}
		if got := h.server.Requests(rpc.OpReadPages) - reads; got != 1 {
			t.Errorf("%d-page fill was %d ring transactions, want 1", k, got)
		}
		// A relaxed call completes when its DMA lands; nobody spins on a
		// response slot, so there is no return latency.
		done := issued.Add(rigRPC.PollInterval + rigRPC.HandleCost + warmRead(k*opt.PageSize, k))
		for idx := uint64(k); idx < 2*k; idx++ {
			fp, _ := f.fc.tree.LookupLeaf(idx)
			if fp == nil || !fp.Ready() {
				t.Errorf("page %d not resident after the fill", idx)
				continue
			}
			fr := fs.cache.Frame(fp.Frame())
			if got := simtime.Time(fr.ReadyAt.Load()); got != done {
				t.Errorf("page %d ready at %v, want the one DMA's completion %v", idx, got, done)
			}
		}
	})
}

// TestCostSkipRule: pages an asynchronous fill finds resident cost the block
// nothing when the batch is known-needed — so a multi-page gread over a
// resident extent costs what its pages cost one by one — and probeCost each
// when the fetch is speculative.
func TestCostSkipRule(t *testing.T) {
	const k = 8
	opt := defaultOpt()
	costRig(t, opt, k, func(h *harness, b *gpu.Block, fd int) {
		fs, f := h.fss[0], h.fss[0].ft.fds[fd]
		gread(t, fs, b, fd, k*opt.PageSize) // make all k resident
		if got := elapsed(b, func() { fs.spanFetch(b, f, 0, k, 1, pcache.SpecNone) }); got != 0 {
			t.Errorf("known-needed batch over %d resident pages cost %v, want nothing", k, got)
		}
		if got, want := elapsed(b, func() { fs.spanFetch(b, f, 0, k, 1, pcache.SpecPending) }), k*fs.probeCost(); got != want {
			t.Errorf("speculative probe of %d resident pages cost %v, want %d x probeCost = %v", k, got, k, want)
		}
		got := elapsed(b, func() { gread(t, fs, b, fd, k*opt.PageSize) })
		if want := k * (opt.RadixLookupLockFree + devPass(opt.PageSize)); got != want {
			t.Errorf("%d-page resident gread cost %v, want %d single-page hits = %v", k, got, k, want)
		}
	})
}

// TestCostSpeculativeReclaim: a speculative fill that finds the pool dry
// reclaims the k frames it wants from a closed file's clean pages and pays the
// block, for each, the APICostPerPage a demand eviction pays, beside the
// span's usual charges — a claim per page and an API call per coalesced RPC.
// It sends the host nothing but those reads. The fill is past the head, which
// the open reclaimed its own frames for.
func TestCostSpeculativeReclaim(t *testing.T) {
	const k = 4
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	frames := opt.BufferCacheBytes / ps
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/closed", pattern(int(frames*ps), 1))
	h.write(t, "/f", pattern(int((span+k)*ps), 2))
	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/closed", O_RDONLY)
		if err != nil {
			return err
		}
		gread(t, fs, b, fd, frames*ps) // the whole pool
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		if fd, err = fs.Open(b, "/f", O_RDONLY); err != nil {
			return err
		}
		if free := fs.cache.FreeFrames(); free != 0 {
			t.Fatalf("%d frames free, want a dry pool", free)
		}
		reads, requests := h.server.Requests(rpc.OpReadPages), h.server.TotalRequests()
		reclaimed := fs.CacheStats().SpecReclaimed
		cost := elapsed(b, func() { fs.spanFetch(b, fs.ft.fds[fd], span, k, 1, pcache.SpecPending) })

		rpcs := (k*ps + maxHostIO - 1) / maxHostIO // the k adjacent pages, one RPC per span
		probe := opt.APICostPerPage >> probeCostShift
		if want := k*opt.APICostPerPage + k*probe + simtime.Duration(rpcs)*opt.APICostPerPage; cost != want {
			t.Errorf("a %d-page speculative fill over %d reclaimed pages cost %v, want %d evictions + %d claims + %d API calls = %v",
				k, k, cost, k, k, rpcs, want)
		}
		if r, all := h.server.Requests(rpc.OpReadPages)-reads, h.server.TotalRequests()-requests; r != rpcs || all != rpcs {
			t.Errorf("%d read requests of %d requests, want %d of %d", r, all, rpcs, rpcs)
		}
		if got := fs.CacheStats().SpecReclaimed - reclaimed; got != k {
			t.Errorf("%d pages reclaimed for speculation, want %d", got, k)
		}
		return fs.Close(b, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.checkDirtyCounts(t)
}

// TestCostSmallFileRidesWithItsOpen: in the extended system, gopen + gread +
// gclose of a one-page file is one ring transaction — the open's, which also
// preads the file and DMAs it into a frame the block offered — and the gread
// is a hit. Of a file one byte larger than the offer, the head rides instead,
// as speculation that the gread uses. In the prototype an open is what it was:
// two transactions.
func TestCostSmallFileRidesWithItsOpen(t *testing.T) {
	type cost struct {
		open, read             simtime.Duration
		requests, reads        int64
		hits, misses, filled   int64
		prefetched, carriedLen int64
	}
	scan := func(opt Options, size int64) (c cost) {
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		tr := trace.New(16)
		tr.Enable(true)
		fs.SetTracer(tr)
		h.write(t, "/f", pattern(int(size), 1))
		_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
			var fd int
			var err error
			c.open = elapsed(b, func() { fd, err = fs.Open(b, "/f", O_RDONLY) })
			if err != nil {
				return err
			}
			c.read = elapsed(b, func() { gread(t, fs, b, fd, opt.PageSize) })
			return fs.Close(b, fd)
		})
		if err != nil {
			t.Fatal(err)
		}
		c.requests, c.reads = h.server.TotalRequests(), h.server.Requests(rpc.OpReadPages)
		c.hits, c.misses = fs.cacheHits.Load(), fs.cacheMisses.Load()
		cs := fs.CacheStats()
		c.filled, c.prefetched = cs.OpenFilled, cs.PrefetchIssued+cs.PrefetchUsed+cs.PrefetchWasted
		for _, e := range tr.Snapshot() {
			if e.Op == trace.OpOpen {
				c.carriedLen = e.Bytes
			}
		}
		return c
	}
	opt := defaultOpt()
	ps := opt.PageSize
	ring := rigRPC.PollInterval + rigRPC.HandleCost + rigRPC.ReturnLatency
	plainOpen := opt.APICostPerPage + ring + 2*rigHost.SyscallOverhead
	hit := opt.RadixLookupLockFree + devPass(ps)
	fault := opt.RadixLookupLockFree + ring + warmRead(ps, 1) + opt.APICostPerPage + devPass(ps)

	probe := opt.APICostPerPage >> probeCostShift
	if got, want := scan(opt, ps), (cost{
		open: plainOpen + warmRead(ps, 1) + probe, read: hit,
		requests: 1, hits: 1, filled: 1, carriedLen: ps,
	}); got != want {
		t.Errorf("one-page file, extended:\n got %+v\nwant %+v (open = plain open + pread + DMA + one claim; gread = a hit)", got, want)
	}
	span := maxHostIO / ps
	if got, want := scan(opt, maxHostIO+1), (cost{
		open: plainOpen + warmRead(maxHostIO, int(span)) + simtime.Duration(span)*probe, read: hit,
		requests: 1, hits: 1, filled: span, prefetched: span + 1, carriedLen: maxHostIO,
	}); got != want {
		t.Errorf("file one byte past the span, extended:\n got %+v\nwant %+v (the head rides; gread = a hit on it)", got, want)
	}
	staging := simtime.TransferTime(ps, rigBus.HostMemBandwidth)
	if got, want := scan(prototypeOpt(), ps), (cost{
		open: plainOpen, read: fault - devPass(ps) + staging + devPass(2*ps),
		requests: 2, reads: 1, misses: 1,
	}); got != want {
		t.Errorf("one-page file, prototype:\n got %+v\nwant %+v (the open is the parent's; the fault's DMA is staged and its copy costs a second pass)", got, want)
	}
}

// memFence is gpu.Block.MemFence's charge, which ends every gwrite.
const memFence = 200 * simtime.Nanosecond

// gwrite writes src at off, reporting a failed or short write.
func gwrite(t *testing.T, fs *FS, b *gpu.Block, fd int, src []byte, off int64) {
	if n, err := fs.Write(b, fd, src, off); err != nil || n != len(src) {
		t.Errorf("gwrite of %d bytes at %d: n=%d err=%v", len(src), off, n, err)
	}
}

// TestCostWholePageWriteMiss: a gwrite that determines every byte of a page
// not resident — it covers the page, or starts at its boundary and reaches end
// of file — fills the frame from the caller's bytes: no request to the host,
// and the cost of the lookup that missed, the copy, the zeroing of what the
// write does not cover, the page's bookkeeping and the fence. With the pool dry
// it also pays for the eviction that finds it a frame, still without a request
// when the victims are clean.
func TestCostWholePageWriteMiss(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	pages := 2 * opt.BufferCacheBytes / ps
	size := pages*ps - ps/2 // the last page is half a page
	costRigFlags(t, opt, size, O_RDWR, func(h *harness, b *gpu.Block, fd int) {
		fs := h.fss[0]
		miss := func(what string, n, off int64, extra simtime.Duration) {
			t.Helper()
			src := pattern(int(n), 9)
			requests, allocs := h.server.TotalRequests(), fs.cache.Allocs()
			got := elapsed(b, func() { gwrite(t, fs, b, fd, src, off) })
			if d := h.server.TotalRequests() - requests; d != 0 {
				t.Errorf("%s sent %d requests to the host, want none", what, d)
			}
			if d := fs.cache.Allocs() - allocs; d != 1 {
				t.Errorf("%s took %d frames, want 1", what, d)
			}
			want := opt.RadixLookupLockFree + extra + devPass(2*n) + devPass(ps-n) + opt.APICostPerPage + memFence
			if got != want {
				t.Errorf("%s cost %v, want lookup + copy + tail zeroing + API + fence = %v", what, got, want)
			}
			ref, _, err := fs.getPage(b, fs.ft.fds[fd], off/ps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fr := ref.fr; !bytes.Equal(fr.Data[:n], src) || !bytes.Equal(fr.Data[n:], make([]byte, ps-n)) ||
				fr.ValidBytes.Load() != n || !fr.Dirty.Load() {
				t.Errorf("%s: the page is not the written bytes then zeros, valid to %d and dirty (valid %d, dirty %v)",
					what, n, fr.ValidBytes.Load(), fr.Dirty.Load())
			}
			ref.release()
		}
		span := maxHostIO / ps
		miss("whole-page write miss past the head", ps, span*ps, 0)
		miss("write miss reaching end of file", ps/2, (pages-1)*ps, 0)

		// Dry pool: make the victims clean, fill the cache with clean pages,
		// then miss again.
		if err := fs.Fsync(b, fd); err != nil {
			t.Fatal(err)
		}
		for p := int64(1); fs.cache.FreeFrames() > 0; p++ {
			greadAt(t, fs, b, fd, ps, p*ps)
		}
		evict := simtime.Duration(fs.opt.EvictBatch) * opt.APICostPerPage
		miss("whole-page write miss on a dry pool", ps, (pages-2)*ps, evict)
	})
}

// TestCostPartialPageWriteMiss: a gwrite that leaves bytes of the page to the
// host's copy still faults it in — one read — and then pays its copy. The
// writes land past the head the open carries.
func TestCostPartialPageWriteMiss(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	head := int64(maxHostIO)
	ring := rigRPC.PollInterval + rigRPC.HandleCost + rigRPC.ReturnLatency
	fault := opt.RadixLookupLockFree + ring + warmRead(ps, 1) + opt.APICostPerPage
	for _, c := range []struct {
		what   string
		off, n int64
	}{
		{"write inside a page", head + ps/4, ps / 2},
		{"write from the page boundary, short of the page and of end of file", head + ps, ps / 2},
		{"write to the end of a page from inside it", head + 2*ps + ps/2, ps / 2},
	} {
		costRigFlags(t, opt, head+4*ps, O_RDWR, func(h *harness, b *gpu.Block, fd int) {
			fs := h.fss[0]
			reads, requests := h.server.Requests(rpc.OpReadPages), h.server.TotalRequests()
			got := elapsed(b, func() { gwrite(t, fs, b, fd, pattern(int(c.n), 9), c.off) })
			if r, all := h.server.Requests(rpc.OpReadPages)-reads, h.server.TotalRequests()-requests; r != 1 || all != 1 {
				t.Errorf("%s: %d read requests of %d requests, want 1 of 1", c.what, r, all)
			}
			if want := fault + devPass(2*c.n) + memFence; got != want {
				t.Errorf("%s cost %v, want fault + copy + fence = %v", c.what, got, want)
			}
		})
	}
}

// TestCostWriteSharedWholePageStillFetches: O_GWRSHARED write-back diffs
// against the pristine copy, so even a whole-page overwrite fetches the page
// (the page of a file one page more than an open carries that is past the head).
func TestCostWriteSharedWholePageStillFetches(t *testing.T) {
	opt := defaultOpt()
	costRigFlags(t, opt, maxHostIO+opt.PageSize, O_RDWR|O_GWRSHARED, func(h *harness, b *gpu.Block, fd int) {
		reads := h.server.Requests(rpc.OpReadPages)
		gwrite(t, h.fss[0], b, fd, pattern(int(opt.PageSize), 9), maxHostIO)
		if got := h.server.Requests(rpc.OpReadPages) - reads; got != 1 {
			t.Errorf("write-shared whole-page write miss was %d reads, want 1", got)
		}
	})
}

// TestCostFsyncAndTruncate: gfsync of k dirty pages, no two of them adjacent,
// is k writes and nothing else — the write's reply carries the generation a
// stat used to fetch — all issued before any is joined: the block pays k
// issue charges beside the lane's one daemon worker, and waits for the last
// write to land. One page
// costs a ring cycle, the staged D2H transfer and the pwrite, exactly what a
// blocking write costs. gftruncate is one request, and the fast reopen that
// follows shows the generations were adopted.
//
// The worker's side of k pages, from the rig's parameters: a write is a
// dispatch, a D2H transfer the worker does not wait for, and a pwrite once it
// lands. The worker's calendar books in issue order and a later page's
// dispatch backfills only an idle stretch that holds it whole, so pages go
// through in groups of m = 1 + d2h/dispatch: m dispatches back to back — those
// after the first inside the first one's transfer — then the wait for the
// last one's transfer and its pwrite (the earlier pwrites fall inside that
// wait, and what they leave of it is too short for a dispatch). A full group
// is m dispatches, one transfer and one pwrite; the last group has what
// pages remain. The issue charges are not what bounds it: the block issues a
// page in less than the worker dispatches one.
func TestCostFsyncAndTruncate(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	d2h := simtime.TransferTime(ps, rigBus.HostMemBandwidth) + rigBus.DMALatency +
		simtime.TransferTime(ps, rigBus.Bandwidth) + devPass(ps)
	pwrite := rigHost.SyscallOverhead + simtime.TransferTime(ps, rigHost.MemBandwidth)
	group := func(pages int) simtime.Duration {
		return simtime.Duration(pages)*rigRPC.HandleCost + d2h + pwrite
	}
	const k = 5
	m := 1 + int(d2h/rigRPC.HandleCost)
	if opt.APICostPerPage > rigRPC.HandleCost {
		t.Fatalf("the rig issues a page every %v and dispatches one in %v; the closed form assumes the worker is the bound",
			opt.APICostPerPage, rigRPC.HandleCost)
	}
	full := (k - 1) / m
	costFsyncAndTruncate(t, opt, k, 2, k,
		rigRPC.PollInterval+simtime.Duration(full)*group(m)+group(k-full*m)+rigRPC.ReturnLatency)
	// One page: what a gfsync of it cost when the block sat through each write.
	costFsyncAndTruncate(t, opt, 1, 2, 1,
		rigRPC.PollInterval+rigRPC.HandleCost+rigRPC.ReturnLatency+d2h+pwrite)
}

// TestCostFsyncAdjacentPages: gfsync of k adjacent dirty pages that fit in
// maxHostIO is one write gathered from k segments: one ring cycle, one D2H
// transfer of the k pages that pays the scatter-gather surcharge of an eighth
// of the DMA setup per segment past the first, and one pwrite — what a
// blocking write of the k pages' bytes costs.
func TestCostFsyncAdjacentPages(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	for _, k := range []int64{maxHostIO / ps / 2, maxHostIO / ps} {
		n := k * ps
		d2h := simtime.TransferTime(n, rigBus.HostMemBandwidth) + rigBus.DMALatency +
			rigBus.DMALatency/8*simtime.Duration(k-1) + simtime.TransferTime(n, rigBus.Bandwidth) + devPass(n)
		pwrite := rigHost.SyscallOverhead + simtime.TransferTime(n, rigHost.MemBandwidth)
		costFsyncAndTruncate(t, opt, k, 1, 1,
			rigRPC.PollInterval+rigRPC.HandleCost+d2h+pwrite+rigRPC.ReturnLatency)
	}
}

// costFsyncAndTruncate dirties k whole pages, stride pages apart, gfsyncs them
// and checks it costs want and sends writes write requests and nothing else.
func costFsyncAndTruncate(t *testing.T, opt Options, k, stride, writes int64, want simtime.Duration) {
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/f", pattern(int(2*k*ps), 1))
	ops := func() [3]int64 {
		return [3]int64{h.server.Requests(rpc.OpWritePages), h.server.Requests(rpc.OpStat), h.server.TotalRequests()}
	}
	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDWR)
		if err != nil {
			return err
		}
		for p := int64(0); p < k; p++ {
			gwrite(t, fs, b, fd, pattern(int(ps), 9), stride*p*ps)
		}
		before := ops()
		cost := elapsed(b, func() {
			if err := fs.Fsync(b, fd); err != nil {
				t.Error(err)
			}
		})
		after := ops()
		if after[0]-before[0] != writes || after[1] != before[1] || after[2]-before[2] != writes {
			t.Errorf("gfsync of %d dirty pages %d apart: %d writes, %d stats, %d requests; want %d, 0, %d",
				k, stride, after[0]-before[0], after[1]-before[1], after[2]-before[2], writes, writes)
		}
		if cost != want {
			t.Errorf("gfsync of %d dirty pages %d apart cost %v, want poll + the worker's groups of dispatches, one D2H DMA and one pwrite + return = %v",
				k, stride, cost, want)
		}

		before = ops()
		if err := fs.Ftruncate(b, fd, (2*k-1)*ps); err != nil {
			t.Error(err)
		}
		if after := ops(); after[2]-before[2] != 1 {
			t.Errorf("gftruncate was %d requests, want 1", after[2]-before[2])
		}
		return fs.Close(b, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDWR)
		if err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	if s := fs.Snapshot(); s.ClosedTableReuses != 1 || s.HostOpens != 1 {
		t.Errorf("reopen after gfsync and gftruncate: %d closed-table reuses, %d host opens; want 1 and 1", s.ClosedTableReuses, s.HostOpens)
	}
	if _, inv := h.layer.Stats(); inv != 0 {
		t.Errorf("%d invalidations: the cached generation fell behind the host's", inv)
	}
	h.checkDirtyCounts(t)
}
