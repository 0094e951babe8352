package core

import (
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// Golden cost tests for the read path: what one cache hit, one page fault
// and one vectored fill cost in virtual time on an idle machine, with every
// expected value derived from Options and the rig's rpc, pcie and hostfs
// parameters (internal/gsys/cost_test.go pins the syscall below the fault
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
	h := newHarness(t, 1, opt)
	h.write(t, "/f", pattern(int(pages*opt.PageSize), 1))
	_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
		fd, err := h.fss[0].Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		fn(h, b, fd)
		return h.fss[0].Close(b, fd)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// elapsed runs fn and reports what it cost the block.
func elapsed(b *gpu.Block, fn func()) simtime.Duration {
	start := b.Clock.Now()
	fn()
	return b.Clock.Now().Sub(start)
}

// gread reads n bytes at offset 0, reporting a failed or short read.
func gread(t *testing.T, fs *FS, b *gpu.Block, fd int, n int64) {
	if got, err := fs.Read(b, fd, make([]byte, n), 0); err != nil || int64(got) != n {
		t.Errorf("gread of %d bytes: n=%d err=%v", n, got, err)
	}
}

// TestCostCacheHit: a hit is one lock-free lookup plus one device-memory
// pass over the bytes read in place; the copying setting costs exactly one
// more pass, and sends nothing to the host either way.
func TestCostCacheHit(t *testing.T) {
	hit := func(zeroCopy bool) (cost simtime.Duration) {
		opt := defaultOpt()
		opt.ZeroCopyRead = zeroCopy
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
	inPlace, copying := hit(true), hit(false)
	if want := opt.RadixLookupLockFree + devPass(opt.PageSize); inPlace != want {
		t.Errorf("in-place hit cost %v, want lookup + one device-memory pass = %v", inPlace, want)
	}
	if want := opt.RadixLookupLockFree + devPass(2*opt.PageSize); copying != want {
		t.Errorf("copying hit cost %v, want lookup + two device-memory passes = %v", copying, want)
	}
}

// TestCostPageFault: a demand fault is the lookup that missed, the
// single-page strong read, and the page's bookkeeping — whatever the number
// of allocator shards. Copying differs by the staging pass alone, which the
// DMA pays on the host memory bus.
func TestCostPageFault(t *testing.T) {
	fault := func(zeroCopy bool, shards int) (cost simtime.Duration) {
		opt := defaultOpt()
		opt.ZeroCopyRead, opt.FrameShards = zeroCopy, shards
		costRig(t, opt, 1, func(h *harness, b *gpu.Block, fd int) {
			fs := h.fss[0]
			reads := h.server.Requests(rpc.OpReadPages)
			cost = elapsed(b, func() {
				if ref, err := fs.getPage(b, fs.fds[fd], 0); err != nil {
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
	for _, shards := range []int{1, 4} {
		if got := fault(true, shards); got != want {
			t.Errorf("fault with %d shards cost %v, want lookup + ring cycle + warm read + API = %v", shards, got, want)
		}
	}
	staging := simtime.TransferTime(opt.PageSize, rigBus.HostMemBandwidth)
	if got := fault(false, 1) - want; got != staging {
		t.Errorf("copying fault costs %v more, want exactly the staging pass %v", got, staging)
	}
}

// TestCostVectoredFill: k adjacent cold pages are k claims and ONE call on
// the block's clock, one ring transaction, and one DMA whose completion
// every frame shares.
func TestCostVectoredFill(t *testing.T) {
	const k = 8
	opt := defaultOpt()
	opt.PageSize = raMaxSpanBytes / k
	costRig(t, opt, k, func(h *harness, b *gpu.Block, fd int) {
		fs, f := h.fss[0], h.fss[0].fds[fd]
		issued, reads := b.Clock.Now(), h.server.Requests(rpc.OpReadPages)
		cost := elapsed(b, func() { fs.spanFetch(b, f, 0, k, 1, pcache.SpecNone, gsys.GranBlock) })

		if want := k*fs.probeCost() + opt.APICostPerPage; cost != want {
			t.Errorf("%d-page fill cost the block %v, want %d claims + one API call = %v", k, cost, k, want)
		}
		if got := h.server.Requests(rpc.OpReadPages) - reads; got != 1 {
			t.Errorf("%d-page fill was %d ring transactions, want 1", k, got)
		}
		// A relaxed call completes when its DMA lands; nobody spins on a
		// response slot, so there is no return latency.
		done := issued.Add(rigRPC.PollInterval + rigRPC.HandleCost + warmRead(k*opt.PageSize, k))
		for idx := uint64(0); idx < k; idx++ {
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
		fs, f := h.fss[0], h.fss[0].fds[fd]
		gread(t, fs, b, fd, k*opt.PageSize) // make all k resident
		if got := elapsed(b, func() { fs.spanFetch(b, f, 0, k, 1, pcache.SpecNone, gsys.GranBlock) }); got != 0 {
			t.Errorf("known-needed batch over %d resident pages cost %v, want nothing", k, got)
		}
		if got, want := elapsed(b, func() { fs.spanFetch(b, f, 0, k, 1, pcache.SpecPending, gsys.GranBlock) }), k*fs.probeCost(); got != want {
			t.Errorf("speculative probe of %d resident pages cost %v, want %d x probeCost = %v", k, got, k, want)
		}
		got := elapsed(b, func() { gread(t, fs, b, fd, k*opt.PageSize) })
		if want := k * (opt.RadixLookupLockFree + devPass(opt.PageSize)); got != want {
			t.Errorf("%d-page resident gread cost %v, want %d single-page hits = %v", k, got, k, want)
		}
	})
}
