package core

import (
	"fmt"
	"runtime"
	"strings"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/trace"
)

// allocFrame obtains a free frame for (fc, offset), running the paging
// algorithm on the calling threadblock when the pool is empty. GPUfs has no
// daemon threads — paging "hijacks" the calling thread and must therefore
// be fast: the FIFO-like policy does a bounded amount of work per page
// (§4.2), unlike clock-style algorithms.
func (fs *FS) allocFrame(b *gpu.Block, fc *fileCache, offset int64) (*pcache.Frame, error) {
	const maxIdleRounds = 4096
	// With a background cleaner configured, a drained pool kicks it here
	// — off the block's clock — so by the time pressure forces eviction
	// below, the victims are usually already clean (or already free).
	fs.maybeClean(b.Clock.Now())
	lastAllocs := fs.cache.Allocs()
	for idle := 0; idle < maxIdleRounds; {
		if fr := fs.takeFrame(b, fc, offset, 0); fr != nil {
			return fr, nil
		}
		// Escalate the reclamation window as we starve, so heavy
		// thrash (28 blocks through a tiny cache) still converges.
		n := fs.evictPages(fs.blockActor(b), fs.opt.EvictBatch+idle/64)
		if n > 0 {
			idle = 0
			continue
		}
		// We reclaimed nothing — but exhaustion is only real if NOBODY
		// is making progress. Other blocks winning the freed frames is
		// contention, not deadlock.
		if a := fs.cache.Allocs(); a != lastAllocs {
			lastAllocs = a
			idle = 0
		} else {
			idle++
		}
		runtime.Gosched()
	}
	return nil, fmt.Errorf("%w: for %q offset %d (%s)", ErrCacheFull, fc.path, offset, fs.pagingSummary())
}

// pagingSummary renders the paging state for ErrCacheFull diagnostics.
func (fs *FS) pagingSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "free=%d/%d", fs.cache.FreeFrames(), fs.cache.NumFrames())
	for _, v := range fs.ft.victims() {
		refs := 0
		ready := 0
		// The guard keeps the snapshotted leaves from being recycled
		// while we read their slots (see radix.OldestLeaves).
		g := v.fc.tree.Pin()
		for _, leaf := range v.fc.tree.OldestLeaves(1 << 20) {
			for i := 0; i < 64; i++ {
				p := leaf.Page(i)
				if p.Ready() {
					ready++
				}
				refs += int(p.Refs())
			}
		}
		g.Exit()
		fmt.Fprintf(&b, " %s[class=%d frames=%d ready=%d refs=%d leaves=%d]",
			v.fc.path, v.class, v.fc.frames.Load(), ready, refs, v.fc.tree.Leaves())
	}
	return b.String()
}

// evictPages reclaims up to target pages, preferring the oldest last-level
// radix nodes of the highest-priority victim file (FIFO traversal of the
// per-file leaf list, lock-free, §4.2; ftable.victims orders the files). Dirty pages are written back to the
// host before their frames are released. Returns the number reclaimed.
//
// A write-back failure never fails the (innocent) block that happened to
// trigger paging: the error is recorded on the owning file's cache and
// surfaced at that file's next gfsync or final gclose, and the dirty page
// stays resident so the data is not lost.
func (fs *FS) evictPages(a actor, target int) int {
	reclaimed := 0
	for _, v := range fs.ft.victims() {
		if reclaimed >= target {
			break
		}
		reclaimed += fs.evictFromFile(a, v, target-reclaimed, evictAny)
	}
	return reclaimed
}

// reclaimForSpec frees up to target frames for a guess (takeFrame), on b's
// clock: clean pages of closed files in cleanVictims' order — oldest
// retirement first, the head of paging's own, unless the latest reuse found
// its cache emptied, then newest first — and oldest leaf first, each at the
// APICostPerPage a demand eviction pays. Never an open file's page and never
// a write-back: a guess may not cost resident data its place or the daemon a
// round trip.
func (fs *FS) reclaimForSpec(b *gpu.Block, target int) int {
	var buf [8]victim
	a := fs.blockActor(b)
	reclaimed := 0
	for _, v := range fs.ft.cleanVictims(buf[:0]) {
		if reclaimed >= target {
			break
		}
		reclaimed += fs.evictFromFile(a, v, target-reclaimed, evictClean)
	}
	fs.specReclaimed.Add(int64(reclaimed))
	return reclaimed
}

// evictMode says which of a victim's resident pages a pass may take.
type evictMode int

const (
	// evictAny is demand paging: dirty pages are written back, then freed.
	evictAny evictMode = iota
	// evictDirty is the cleaner's pre-eviction: clean frames stay resident.
	// Evicting a clean frame costs a faulting block no RPC, so pre-evicting
	// it early only destroys cache that a reopen would still hit — the
	// cleaner's win is taking the write-back, not the release, off the
	// critical path.
	evictDirty
	// evictClean is speculation's (reclaimForSpec): dirty frames stay
	// resident, so the pass sends nothing.
	evictClean
)

// evictFromFile reclaims up to target pages from v on behalf of actor a,
// taking only what mode allows.
func (fs *FS) evictFromFile(a actor, v victim, target int, mode evictMode) int {
	start := a.clk.Now()
	fc := v.fc
	reclaimed := 0
	wasted := 0
	wb := writeBack{fs: fs, a: a, fc: fc, hostFd: v.hostFd}

	// Bound the traversal: we look at enough leaves to cover the target
	// plus slack for referenced pages. Leaves hold 64 slots each, so
	// target/64 rounded up covers the target even when every leaf is
	// full; the slack term is 8 leaves PER ALLOCATOR SHARD — with a
	// sharded frame pool a faulting lane may find its own shard (and the
	// steal ring) empty while the frames it must reclaim sit behind
	// referenced leaves, so the slack scales with the shard count to keep
	// the bound from re-introducing spurious ErrCacheFull. The bound is
	// advisory, not absolute: if the oldest leaves are entirely hot or
	// mid-claim (every slot referenced or initializing), a hard cutoff
	// would reclaim nothing forever while evictable pages sit in younger
	// leaves — the faulting block would spin to a spurious ErrCacheFull.
	// So the scan runs deeper until it frees at least one page. The
	// cleaner's dirty-only and speculation's clean-only passes keep the hard
	// bound instead: they may legitimately find nothing to do, and demand
	// eviction follows anyway.
	maxLeaves := target/64 + 8*fs.cache.Shards()
	scanned := 0
	// The epoch guard spans the FIFO snapshot AND its use: leaves this
	// very loop (or a concurrent pass) detaches must not be recycled
	// while we still read their slots. Retirement is merely deferred —
	// RemoveLeaf under our own guard just queues the leaf for the next
	// grace period.
	g := fc.tree.Pin()
	defer g.Exit()
	for _, leaf := range fc.tree.OldestLeaves(1 << 20) {
		if scanned >= maxLeaves && (reclaimed > 0 || mode != evictAny) {
			break
		}
		scanned++
		live := 0
		for i := 0; i < 64 && reclaimed < target; i++ {
			fp := leaf.Page(i)
			if !fp.Ready() {
				if !fp.Empty() {
					live++ // initializing or evicting: owns a frame
				}
				continue
			}
			fr := fs.beginEvict(fp)
			if fr == nil {
				live++
				continue
			}
			// Put the page back rather than take one mode leaves alone,
			// lose dirty data for want of a descriptor to write through,
			// or drop a page whose write-back failed: it stays dirty and
			// the owner learns of the failure at its next sync.
			dirty := fr.Dirty.Load()
			keep := mode == evictDirty && !dirty || mode == evictClean && dirty || dirty && v.hostFd == 0
			if dirty && !keep {
				// Issued now, not gathered with the next page: the page is
				// reclaimed only once its own write has landed.
				err := wb.frame(fr, nil)
				if ferr := wb.flush(); err == nil {
					err = ferr
				}
				if err != nil {
					fc.recordWriteErr(err)
					keep = true
				}
			}
			if keep {
				cancelEvict(fp)
				live++
				continue
			}
			if fs.reclaim(a.clk, fc, fp, fr, true) {
				wasted++
			}
			a.busy(fs.opt.APICostPerPage)
			reclaimed++
		}
		if live == 0 && leafEmpty(leaf) {
			fc.tree.RemoveLeaf(leaf)
		}
		if reclaimed >= target {
			break
		}
	}

	wb.done() // every run is flushed: only the join is left
	if reclaimed > 0 {
		fs.recordAt(a.block, trace.OpEvict, fc.path, 0, int64(reclaimed)*fs.opt.PageSize, start, a.clk.Now(), nil)
	}
	if wasted > 0 {
		fs.recordAt(a.block, trace.OpPrefetchWaste, fc.path, 0, int64(wasted)*fs.opt.PageSize, start, a.clk.Now(), nil)
	}
	return reclaimed
}

// leafEmpty reports whether no slot of the leaf holds — or is in the
// middle of acquiring — a frame. Detaching a leaf whose slot is mid-
// initialization would strand the initializer's frame on an unreachable
// node.
func leafEmpty(leaf *radix.Node) bool {
	for i := 0; i < 64; i++ {
		if !leaf.Page(i).Empty() {
			return false
		}
	}
	return true
}
