package core

import (
	"fmt"
	"runtime"
	"sync"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/simtime"
)

// The page lifecycle (DESIGN.md §16 has the diagram and the table). A cached
// page is a radix slot plus, from claim to reclaim, a pcache frame. radix
// checks the slot transitions; this file composes them with what they imply
// for the frame, fileCache.frames and the speculation counters, and is the
// only file of the package that moves a page between states, takes or frees a
// frame, or moves Frame.Dirty and the dirty-page counts (`make tier2` greps
// for it). The hit path of getPage takes its reference inline: a reference is
// a count, not a move.

// pageRef is a page the caller has a claim on: a reference (from getPage or
// publish), protecting fr against reclamation until release, or the Init
// claim of a page being filled (publish or abort).
type pageRef struct {
	fr *pcache.Frame
	fp *radix.FPage
}

func (r pageRef) release() { r.fp.Unref() }

// markDirty records local writes the host does not have yet on a page of fc;
// the caller holds a reference. Only write-back clears it.
func (fs *FS) markDirty(fc *fileCache, r pageRef) { fs.setDirty(fc, r.fr, true) }

// setDirty moves fr's dirty flag and, when the flag really changed, the
// counts of dirty pages resident for fc and for the whole FS. The counts are
// the cleaner's hint and nothing else: a pass skips a file that has none and
// does not start when the FS has none. Durability never reads them — gfsync,
// gclose, eviction and the checkpoint walk pages and read Frame.Dirty — so a
// count that lags a racing flag can delay a cleaning, not lose a write.
func (fs *FS) setDirty(fc *fileCache, fr *pcache.Frame, dirty bool) {
	if fr.Dirty.Swap(dirty) == dirty {
		return
	}
	d := int64(1)
	if !dirty {
		d = -1
	}
	fc.dirty.Add(d)
	fs.dirtyPages.Add(d)
	fs.ft.addClean(fc, -d)
}

// addFrames moves fc's resident-page count by d, and its clean count with it:
// a frame arrives clean and leaves clean (reclaim clears a dropped page's flag
// first). The clean count is speculation's budget over the closed table
// (closedCleanPages), read without a walk.
func (fs *FS) addFrames(fc *fileCache, d int64) {
	fc.frames.Add(d)
	fs.ft.addClean(fc, d)
}

// actor is who runs a lifecycle step that talks to the host or costs time: a
// threadblock (its clock, its MP, its home ring shard) or a background
// cleaner lane (its own clock, which per-page bookkeeping advances directly
// since no MP is occupied).
type actor struct {
	lane  gsys.Client
	clk   *simtime.Clock
	busy  func(simtime.Duration)
	block int // trace attribution; negative for the cleaner
}

func (fs *FS) blockActor(b *gpu.Block) actor {
	return actor{lane: fs.lane(b), clk: b.Clock, busy: b.Busy, block: b.Idx}
}

// Every page enters the cache — by getPage's demand fault, by spanFetch or
// with its file's host open (offer, below) — through claim, takeFrame, a fill,
// then publish or abort.

// claim tries to make the caller the initializer of slot fp of leaf, both
// found under an epoch guard the caller still holds. On success the Init
// state pins the leaf (RemoveLeaf requires every slot Empty) and the guard
// may be dropped. It fails when the page is resident, in flight or being
// evicted, and on the claim/detach race (see radix.RemoveLeaf): the leaf
// left the tree after the lookup, and a frame initialized there would be
// stranded — unreachable by eviction and by Restart's cache drop.
func claim(fp *radix.FPage, leaf *radix.Node) bool {
	if !fp.TryBeginInit() {
		return false
	}
	if leaf.Detached() {
		fp.AbortInit()
		return false
	}
	return true
}

// takeFrame pops a free frame for the page of fc at offset, steered by the
// caller's lane, or returns nil when the pool is dry.
func (fs *FS) takeFrame(lane int, fc *fileCache, offset int64) *pcache.Frame {
	fr := fs.cache.TryAllocOn(lane, fc.tree.ID(), offset)
	if fr != nil {
		fs.addFrames(fc, 1)
	}
	return fr
}

// publish makes a claimed, filled page Ready, the caller keeping the
// initializer's reference. The frame's first n bytes hold the page's file
// content (0 for a page never fetched); threads of the block zero the tail
// collaboratively (§4.1), so reads past EOF (after local extension) observe
// zeros rather than a previous tenant's bytes. readyAt is when an
// asynchronous fill's content is usable, 0 for a synchronous one (see
// pcache.Frame.ReadyAt).
func (fs *FS) publish(b *gpu.Block, f *file, r pageRef, n int, readyAt simtime.Time, spec int32) {
	fr := r.fr
	if n < len(fr.Data) {
		b.ZeroBytes(fr.Data[n:])
	}
	fr.ValidBytes.Store(int64(n))
	fr.ReadyAt.Store(int64(readyAt))
	fr.Spec.Store(spec)
	fr.WriteOnce.Store(f.writeOnce)
	if f.writeShrd {
		// General write-sharing: preserve the pristine copy the
		// diff-and-merge protocol diffs against at sync time.
		fr.SetPristine(fr.Data[:n])
	}
	r.fp.FinishInit(fr.Index)
}

// publishOverwrite brings a claimed page in as the bytes a gwrite is putting
// there: src is the page's whole content from its first byte (anything past
// it lies beyond end of file), so nothing is fetched and only what src does
// not cover is zeroed. The copy happens while the slot is still Init — no
// reader may see the frame between the claim and the writer's bytes, since
// what it held before is neither the old page nor the new one — and the
// caller keeps the initializer's reference from publish through markDirty, so
// no evictor can take the page while it is Ready and not yet dirty. The
// checkpoint's copy-on-write hook is not called: the frame never held a
// pre-write image (the host copy is the pre-write image).
func (fs *FS) publishOverwrite(b *gpu.Block, f *file, r pageRef, src []byte) {
	b.CopyBytes(r.fr.Data, src)
	fs.publish(b, f, r, len(src), 0, pcache.SpecNone)
	fs.markDirty(f.fc, r)
}

// abort gives a claim up: the frame could not be filled, or (r.fr nil) there
// was none to take.
func (fs *FS) abort(fc *fileCache, r pageRef) {
	if r.fr != nil {
		fs.cache.Release(r.fr, false)
		fs.addFrames(fc, -1)
	}
	r.fp.AbortInit()
}

// A host open brings a small file in with it (hostOpen, OpenAhead): offer
// before the call, settle on its reply, accept once the open knows its cache.
// An offer that comes back empty leaves no trace: the pool, its counters and
// the tree are as if it had not been made (see settle and accept).

// carry is the frames a host open offers for the file's content, then those of
// them that received some.
type carry struct {
	fc     *fileCache      // the fresh cache the frames were taken for
	frames []*pcache.Frame // for its pages 0, 1, …
	ns     []int           // once settled: the bytes that landed in each
}

// offer takes free frames for the first pages of fc — the fresh cache of f's
// host open, which no table knows yet — for the open to carry the file's
// content into: as many as one coalesced span holds, fewer when the pool runs
// dry, since an open never evicts — not even the closed files' clean pages a
// confirmed stream's speculation may take (spanFetch): nothing confirmed it.
// The gate is read-ahead's own; a file being truncated has nothing worth
// carrying.
func (fs *FS) offer(b *gpu.Block, f *file, fc *fileCache) carry {
	c := carry{fc: fc}
	if !fs.opt.ReadAheadAdaptive || !f.readable || f.writeOnce || f.flags&O_TRUNC != 0 {
		return c
	}
	ps := fs.opt.PageSize
	n := max(raMaxSpanBytes/ps, 1)
	c.frames = make([]*pcache.Frame, 0, n)
	for i := int64(0); i < n; i++ {
		fr := fs.takeFrame(b.Idx, fc, i*ps)
		if fr == nil {
			break
		}
		c.frames = append(c.frames, fr)
	}
	return c
}

// dsts lists the offered frames' pages, the open's destination segments.
func (c *carry) dsts() [][]byte {
	dsts := make([][]byte, len(c.frames))
	for i, fr := range c.frames {
		dsts[i] = fr.Data
	}
	return dsts
}

// settle meets the open's reply — ns[i] bytes landed in the i'th frame, none
// past len(ns), and nil is an open that failed or carried nothing. The frames
// that received bytes (a prefix, the read being one extent) stay for accept.
// The rest go back at once, before anything else the open does touches the
// pool, and newest first, so each shard's list is in the order it had before
// the offer; their allocations are uncounted, since the harness reads pages
// faulted off the allocator and a frame an open merely held was not one.
func (fs *FS) settle(b *gpu.Block, c *carry, ns []int) {
	k := 0
	for k < len(c.frames) && k < len(ns) && ns[k] > 0 {
		k++
	}
	for i := len(c.frames) - 1; i >= k; i-- {
		fs.cache.Unalloc(b.Idx, c.frames[i])
		fs.addFrames(c.fc, -1)
	}
	c.frames, c.ns = c.frames[:k], ns[:k]
}

// accept publishes the settled frames as pages 0, 1, … of fc, the cache the
// open resolved to, and returns the bytes carried; if that is not the fresh one
// (the closed table's copy proved current) the frames go back instead. Only
// now are the slots — and the leaf under them, whose age is eviction's FIFO
// order — materialized: a tree must not remember an offer that carried
// nothing. The cache is still the opener's alone, so every claim wins.
// readyAt is publish's. The pages are nobody's guess (SpecNone): the stride
// detector did not issue them and its used/wasted feedback must not hear of
// them.
func (fs *FS) accept(b *gpu.Block, f *file, c *carry, fc *fileCache, readyAt simtime.Time) int64 {
	if fc != c.fc {
		fs.settle(b, c, nil)
		return 0
	}
	var carried int64
	for i, fr := range c.frames {
		g := fc.tree.Pin()
		fp, leaf := fc.tree.Insert(uint64(i))
		ok := claim(fp, leaf)
		g.Exit()
		if !ok {
			panic(fmt.Sprintf("gpufs: page %d of %q claimed on a cache no table holds yet", i, fc.path))
		}
		r := pageRef{fr: fr, fp: fp}
		fs.publish(b, f, r, c.ns[i], readyAt, pcache.SpecNone)
		b.Busy(fs.probeCost())
		r.release()
		carried += int64(c.ns[i])
	}
	fs.openFilled.Add(int64(len(c.frames)))
	return carried
}

// hold takes a reference on a resident page met by a walk of fc's tree
// (gfsync, the cleaner, the checkpoint) and returns its frame; the caller
// drops the reference with p.Unref. It returns nil, holding nothing, unless
// the slot is Ready and its frame is still fc's — the walks are lock-free and
// best-effort.
func (fs *FS) hold(fc *fileCache, p *radix.FPage) *pcache.Frame {
	if p.TryRef() {
		// A reference on a Ready slot pins its frame index.
		if fr := fs.cache.Frame(p.Frame()); fr.FileID.Load() == fc.tree.ID() {
			return fr
		}
		p.Unref()
	}
	return nil
}

// writeBackGap is how close two dirty ranges must be before write-back
// coalesces them into one RPC write.
const writeBackGap = 512

// writeBack is one actor propagating dirty pages of one file to the host
// through hostFd: any number of frame calls, then done. The walk is
// fork-join in virtual time: frame issues a page's writes without waiting for
// them, done waits for them all, so a walk of k pages costs the actor k
// issues beside the daemon's work on them rather than k round trips.
type writeBack struct {
	fs     *FS
	a      actor
	fc     *fileCache
	hostFd int64
	// buf is the one buffer every page of this walk is snapshotted through,
	// drawn from snapBufs at the first dirty page and returned by done.
	buf *[]byte
	// fork is the clock each write blocks on, forked from the actor's when the
	// write is issued; landed is the latest instant any write the walk
	// depends on reaches the host, which done joins.
	fork   simtime.Clock
	landed simtime.Time
}

// snapBufs recycles write-back snapshot buffers across walks: most walks
// write one or two pages, so a buffer per walk would still be one per page.
var snapBufs = sync.Pool{New: func() any { return new([]byte) }}

// frame makes sure the host has, once the walk is joined (done), the bytes of
// one page the caller keeps from reclamation (a reference, or the Evicting
// state). A dirty page is written back, sending only the bytes this GPU
// actually modified:
//
//   - O_GWRONCE pages diff against implicit zeros (no pristine copy is
//     stored), so write-back reduces to transferring non-zero ranges.
//   - Write-shared pages diff against the pristine copy preserved at first
//     read, so concurrent modifications of other portions of the same page
//     by other processors are not reverted (the false-sharing hazard of
//     §3.1).
//   - Exclusively written pages are sent whole over their valid extent.
//
// Each range is a strong write — the transport's whole blocking protocol,
// retries, timeouts and dedup included — run on a clock forked from the
// actor's, which pays the issue and moves on while the daemon and the DMA
// engines work; where the fork ends is when the range is on the host, kept in
// the walk and in Frame.CleanAt. A clean page has nothing to send, but the
// write-back that cleaned it may still be in flight on another actor's fork
// at this actor's time: the walk waits for that one too (landing).
//
// On success the frame is clean and, for write-shared pages, the pristine
// copy is advanced to the page's current content so future diffs are
// relative to this sync. On failure it is dirty again. Either way the file
// adopts the generation of every range that did reach the host.
func (w *writeBack) frame(fr *pcache.Frame) error {
	// One write-back of a page at a time, from before the dirty flag
	// clears until the last range is on the host (see Frame.WriteBack).
	fr.WriteBack.Lock()
	defer fr.WriteBack.Unlock()
	if !fr.Dirty.Load() {
		// Whoever cleared the flag held the lock until its writes returned
		// (or failed, and set the flag again), so CleanAt covers them.
		w.landed = max(w.landed, landing(fr, w.a.clk.Now()))
		return nil
	}
	// Clear the dirty flag BEFORE snapshotting: a write racing with this
	// sync either lands in the snapshot (shipped now, re-flagged
	// harmlessly) or re-dirties the page for the next sync. Either way
	// nothing is lost.
	w.fs.setDirty(w.fc, fr, false)
	if w.buf == nil {
		w.buf = snapBufs.Get().(*[]byte)
	}
	data, pristine, valid := fr.Snapshot(w.buf)
	base := fr.Offset.Load()

	var ranges []Range
	switch {
	case fr.WriteOnce.Load():
		ranges = nonZeroRanges(data, writeBackGap)
	case pristine != nil:
		ranges = diffRanges(data, pristine, writeBackGap)
	default:
		if valid > 0 {
			ranges = []Range{{0, valid}}
		}
	}

	for _, r := range ranges {
		issued := w.a.clk.Now()
		w.fork = w.a.clk.Fork()
		_, gen, err := w.a.lane.WritePages(&w.fork, w.hostFd, base+r.Start, data[r.Start:r.End])
		w.a.busy(w.fs.opt.APICostPerPage) // the issue, as spanFetch pays per RPC
		landed := w.fork.Now()
		w.landed = max(w.landed, landed)
		if int64(landed) > fr.CleanAt.Load() {
			fr.CleanAt.Store(int64(landed))
			fr.WroteAt.Store(int64(issued))
		}
		if err != nil {
			// A racing writer may have re-dirtied it already.
			w.fs.setDirty(w.fc, fr, true)
			return fmt.Errorf("gpufs: writing back page at %d: %w", base, err)
		}
		w.fs.adoptGeneration(w.fc, gen)
	}
	if pristine != nil {
		fr.SetPristine(data)
	}
	return nil
}

// landing is when a write-back of fr in flight at now — issued at or before
// it, not yet on the host — lands; now when there is none. An actor whose
// clock is still before the write was issued does not wait for it: in virtual
// order it met the page as it was before that write, the idealization
// Frame.ReadyAt makes for a fill. Blocks' clocks lie whole kernels apart while
// they run side by side in host time, and waiting regardless of that puts
// every block behind whichever wrote last, one after another.
func landing(fr *pcache.Frame, now simtime.Time) simtime.Time {
	if simtime.Time(fr.WroteAt.Load()) <= now {
		return max(now, simtime.Time(fr.CleanAt.Load()))
	}
	return now
}

// done joins the walk — the actor waits until the last write it issued, or
// found in flight, is on the host — and closes it.
func (w *writeBack) done() {
	w.a.clk.AdvanceTo(w.landed)
	if w.buf != nil {
		snapBufs.Put(w.buf)
		w.buf = nil
	}
}

// adoptGeneration takes gen — what the reply to this GPU's own write or
// truncate says the host file became — as the generation fc's pages
// correspond to, so the consistency layer keeps considering the cached copy
// current. If another processor wrote concurrently, the generations will not
// line up and the next gopen will (correctly) invalidate us. It is the one
// place a cached generation moves after gopen, and it only moves it forward,
// here (raise) and in the layer's record: write-backs of one file run
// concurrently (evicting blocks, the cleaner, gfsync) and their replies
// arrive in any order, and a generation that lags the host makes the next
// reopen drop the file's cache, dirty pages included.
func (fs *FS) adoptGeneration(fc *fileCache, gen int64) {
	raise(&fc.gen, gen)
	fs.sys.RecordCached(fc.ino, gen)
}

// A page leaves the cache through beginEvict, then reclaim — or cancelEvict,
// when the evictor changes its mind.

// beginEvict claims an unreferenced resident page for eviction and returns
// its frame, which the caller now owns; nil when the slot is not Ready or
// somebody holds a reference.
func (fs *FS) beginEvict(fp *radix.FPage) *pcache.Frame {
	if !fp.TryEvict() {
		return nil
	}
	return fs.cache.Frame(fp.Frame())
}

// cancelEvict puts the page back: Ready, resident, as dirty as it was.
func cancelEvict(fp *radix.FPage) { fp.CancelEvict() }

// reclaim completes an eviction on clk, the evictor's clock: the frame goes
// back to the pool and the slot empties — once a write-back of the page in
// flight at the evictor's time has landed (Frame.CleanAt), since until then
// the frame is the source of that write's DMA and a new tenant's fill would
// overwrite it. byPaging says the paging algorithm wanted the frame (counted in
// Table 2's "pages reclaimed") rather than truncate, unlink or invalidation.
// It reports whether the page was wasted speculation — prefetched and never
// consumed, the adaptive window's shrink signal.
func (fs *FS) reclaim(clk *simtime.Clock, fc *fileCache, fp *radix.FPage, fr *pcache.Frame, byPaging bool) bool {
	clk.AdvanceTo(landing(fr, clk.Now()))
	spec := fr.Spec.Swap(pcache.SpecNone)
	wasted := spec == pcache.SpecPending || spec == pcache.SpecReplay
	if wasted {
		fs.prefetchWasted.Add(1)
		fc.prefetchWasted.Add(1)
		fs.specPending.Add(-1)
		if spec == pcache.SpecReplay {
			fs.historyWasted.Add(1)
		}
	}
	// Dirty here means dropped, not written back: truncate, unlink,
	// invalidation, the card's restart.
	fs.setDirty(fc, fr, false)
	fs.cache.Release(fr, byPaging)
	fs.addFrames(fc, -1)
	fp.FinishEvict()
	return wasted
}

// dropCacheNoWriteback releases every frame of fc without propagating any
// dirty data — the content is stale, unlinked, or gone with the card — and
// tells the host to forget this GPU caches the file.
func (fs *FS) dropCacheNoWriteback(clk *simtime.Clock, fc *fileCache) {
	fc.tree.ForEachReadyPage(func(_ uint64, p *radix.FPage) bool {
		fr := fs.beginEvict(p)
		for ; fr == nil; fr = fs.beginEvict(p) {
			if !p.Ready() {
				// A concurrent paging pass already took it.
				return true
			}
			// Briefly referenced (invalidation runs at open time, so
			// holders are transient); wait it out.
			runtime.Gosched()
		}
		fs.reclaim(clk, fc, p, fr, false)
		return true
	})
	fs.sys.Forget(fc.ino)
}
