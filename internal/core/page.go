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
// frame, or moves Frame.Dirty and the dirty-page counts (TestStructureCensus
// holds it). The hit path of getPage takes its reference inline: a reference
// is a count, not a move.

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
// counts of dirty pages resident for fc and for the whole FS and the page's
// bit in its leaf's dirty mask (radix HintDirty). The counts and the mask are
// the cleaner's hints and nothing else: a pass skips a file that has no dirty
// page, does not start when the FS has none, and visits only the pages whose
// bit is set. Durability never reads them — gfsync, gclose, eviction and the
// checkpoint walk pages and read Frame.Dirty — so a hint that lags a racing
// flag can delay a cleaning, not lose a write.
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
	// Two racing moves of the flag may set the bit in the other order; the
	// one that sets it last re-reads the flag after and follows it, so the
	// bit and the flag agree once the page is quiet.
	idx := uint64(fr.Offset.Load() / fs.opt.PageSize)
	for {
		fc.tree.HintDirty(idx, dirty)
		now := fr.Dirty.Load()
		if now == dirty {
			return
		}
		dirty = now
	}
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

// Every page enters the cache — by getPage's demand fault and the window it
// may carry (raCarry), by spanFetch or with its file's host open (offer,
// below) — through claim, takeFrame, a fill, then publish or abort.

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

// takeFrame pops a free frame for the page of fc at offset, steered by b's
// lane; nil when the pool is dry, once a guess (want > 0) has reclaimed up to
// want closed clean pages (reclaimForSpec) for it and the frames it takes next.
func (fs *FS) takeFrame(b *gpu.Block, fc *fileCache, offset int64, want int) *pcache.Frame {
	fr := fs.cache.TryAllocOn(b.Idx, fc.tree.ID(), offset)
	if fr == nil && want > 0 && fs.reclaimForSpec(b, want) > 0 {
		fr = fs.cache.TryAllocOn(b.Idx, fc.tree.ID(), offset)
	}
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
// no evictor can take the page while it is Ready and not yet dirty.
func (fs *FS) publishOverwrite(b *gpu.Block, f *file, r pageRef, src []byte) {
	b.CopyBytes(r.fr.Data, src)
	fs.publish(b, f, r, len(src), 0, pcache.SpecNone)
	fs.markDirty(f.fc, r)
}

// abort gives claims up, newest first — unfilled frames or (r.fr nil) none —
// each frame back uncounted (Unalloc), leaving the pool as the claims found it.
func (fs *FS) abort(lane int, fc *fileCache, rs ...pageRef) {
	for i := len(rs) - 1; i >= 0; i-- {
		if r := rs[i]; r.fr != nil {
			fs.cache.Unalloc(lane, r.fr)
			fs.addFrames(fc, -1)
		}
		rs[i].fp.AbortInit()
	}
}

// A host open brings its file's first pages in with it (hostOpen, OpenAhead):
// offer before the call, settle on its reply, accept once the open knows its
// cache. An offer that comes back empty leaves no trace but what a dry pool
// reclaimed: the pool, its counters and the tree are as before (settle, accept).

// carry is the frames a host open offers for the file's content, then those of
// them that received some.
type carry struct {
	fc     *fileCache      // the fresh cache the frames were taken for
	frames []*pcache.Frame // for its pages 0, 1, …
	ns     []int           // once settled: the bytes that landed in each
	head   bool            // the open asks for the head of a file the frames do not hold
}

// offer takes frames for the first pages of fc — the fresh cache of f's host
// open, which no table knows yet — for the open to carry the file's content
// into: one host transaction's worth, as the planner allows a strong open or
// an open-ahead (openPlan), fewer when the pool runs dry.
func (fs *FS) offer(b *gpu.Block, f *file, fc *fileCache, strong bool) carry {
	n, reclaim, head := fs.openPlan(f, strong)
	c := carry{fc: fc, head: head, frames: make([]*pcache.Frame, 0, n)}
	for i := int64(0); i < n; i++ {
		fr := fs.takeFrame(b, fc, i*fs.opt.PageSize, int(reclaim-i))
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
	}
	fs.addFrames(c.fc, int64(k-len(c.frames)))
	c.frames, c.ns = c.frames[:k], ns[:k]
}

// accept publishes the settled frames as pages 0, 1, … of fc, the cache the
// open resolved to, and returns the bytes carried; if that is not the fresh one
// (the closed table's copy proved current) the frames go back instead. Only
// now are the slots — and the leaf under them, whose age is eviction's FIFO
// order — materialized: a tree must not remember an offer that carried
// nothing. The cache is still the opener's alone, so every claim wins.
// A whole file is nobody's guess (SpecNone; readyAt is publish's): the stride
// detector's feedback must not hear of it. A head, less than the file, is a
// guess, usable from the open's completion, and primes the opener's slot.
func (fs *FS) accept(b *gpu.Block, f *file, c *carry, fc *fileCache, readyAt simtime.Time) int64 {
	if fc != c.fc {
		fs.settle(b, c, nil)
		return 0
	}
	run := make([]pageRef, len(c.frames))
	var carried int64
	for i, fr := range c.frames {
		g := fc.tree.Pin()
		fp, leaf := fc.tree.Insert(uint64(i))
		ok := claim(fp, leaf)
		g.Exit()
		if !ok {
			panic(fmt.Sprintf("gpufs: page %d of %q claimed on a cache no table holds yet", i, fc.path))
		}
		run[i] = pageRef{fr: fr, fp: fp}
		carried += int64(c.ns[i])
	}
	spec := pcache.SpecNone
	if carried < fc.size.Load() && len(run) > 0 {
		spec, readyAt = pcache.SpecPending, b.Clock.Now()
		st := f.streamFor(b.Idx)
		st.mu.Lock()
		fs.prime(st, -1, int64(len(run)))
		st.mu.Unlock()
	}
	fs.publishRun(b, f, run, c.ns, readyAt, spec, 0, b.Clock.Now())
	fs.openFilled.Add(int64(len(run)))
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
// coalesces them into one range.
const writeBackGap = 512

// maxHostIO bounds the bytes of every host transaction core makes: a coalesced
// read (spanFetch, a fault carrying a window), an open's carry (offer) and a
// gathered write-back. It is Linux's default read-ahead bound, and it sizes
// host I/O apart from the GPU page: a page this size or larger is a
// transaction of its own. Without it a span would model arbitrarily large
// single transfers — the daemon stages one whole — and erase the
// per-transaction cost that separates Figure 4's page sizes.
const maxHostIO = 128 << 10

// maxSegs caps the segments of a gathered write or a fault's read so either
// fits a fixed array. It binds only at pages of 4 KiB or less.
const maxSegs = 32

// writeBack is one actor propagating dirty pages of one file to the host
// through hostFd: any number of frame calls, then done. The walk gathers
// each run of adjacent dirty ranges into one write (flush) and is fork-join
// in virtual time: a write is issued without waiting for it, done waits for
// them all, so a walk of k runs costs the actor k issues beside the daemon's
// work on them rather than k round trips.
type writeBack struct {
	fs     *FS
	a      actor
	fc     *fileCache
	hostFd int64
	// buf is the one buffer every page of this walk is snapshotted through,
	// drawn from snapBufs at the first dirty page and returned by done. The
	// queued pages' snapshots are its tail; frame drops the rest.
	buf *[]byte
	// fork is the clock each write blocks on, forked from the actor's when the
	// write is issued; landed is the latest instant any write the walk
	// depends on reaches the host, which done joins.
	fork   simtime.Clock
	landed simtime.Time

	// The run: segs, bytes of buf, go to the file at off as one write of n
	// bytes once flushed. pages are the pages queued for it, in file order;
	// while frame walks a page's ranges (open) that page is the last, and it
	// may have no range in the run yet.
	segs   [maxSegs]wbSeg
	nsegs  int
	off, n int64
	pages  [maxSegs + 1]wbPage
	npages int
	open   bool
}

// wbSeg is one range of a run: bytes [from, to) of the walk's buffer.
type wbSeg struct{ from, to int }

// wbPage is a page queued in a run. It keeps its Frame.WriteBack lock and,
// when ref is not nil, that radix reference until its last range is issued:
// until then its write-back is not even in flight, and an evictor that found
// the page clean and unreferenced could hand its frame away without waiting
// for a write that has not started. Its snapshot is bytes [from, to) of the
// walk's buffer.
type wbPage struct {
	fr       *pcache.Frame
	ref      *radix.FPage
	from, to int
	shared   bool // write-shared: success advances the pristine copy
	inRun    bool // a range of it is in the run not yet issued
	failed   bool // a run it had a range in failed
}

// snapBufs recycles write-back snapshot buffers across walks: most walks
// write one or two runs, so a buffer per walk would still be one per run.
var snapBufs = sync.Pool{New: func() any { return new([]byte) }}

// frame makes sure the host has, once the walk is joined (done), the bytes of
// one page the caller keeps from reclamation (a reference, or the Evicting
// state); ref, when not nil, is such a reference, which the walk takes over
// and drops once the page is done with. Pages come in file order. A dirty page
// is written back, sending only the bytes this GPU actually modified:
//
//   - O_GWRONCE pages diff against implicit zeros (no pristine copy is
//     stored), so write-back reduces to transferring non-zero ranges.
//   - Write-shared pages diff against the pristine copy preserved at first
//     read, so concurrent modifications of other portions of the same page
//     by other processors are not reverted (the false-sharing hazard of
//     §3.1).
//   - Exclusively written pages are sent whole over their valid extent.
//
// Each range joins the run: it continues the run iff it starts at the file
// offset where the run ends and the run stays within maxHostIO (and
// maxSegs); otherwise the run is flushed first and the range starts the
// next. A page with several ranges breaks the run at its gaps. The page stays
// queued, its lock and reference held, until the run holding its last range
// is issued; an actor that needs one page's result flushes after it.
//
// A clean page has nothing to send, but the write-back that cleaned it may
// still be in flight on another actor's fork at this actor's time: the walk
// waits for that one too (landing). The error is that of any run this call
// issued.
func (w *writeBack) frame(fr *pcache.Frame, ref *radix.FPage) error {
	base := fr.Offset.Load()
	var err error
	if !w.continues(base, 1) {
		// Nothing of this page can continue the run: issue it before taking
		// the page's lock, so the locks a walk holds while it waits for one
		// are of the pages just below — ascending, the lock order.
		err = w.flush()
	}
	// One write-back of a page at a time, from before the dirty flag clears
	// until the last range is on the host (see Frame.WriteBack).
	fr.WriteBack.Lock()
	if !fr.Dirty.Load() {
		// Whoever cleared the flag held the lock until its writes returned
		// (or failed, and set the flag again), so CleanAt covers them.
		w.landed = max(w.landed, landing(fr, w.a.clk.Now()))
		fr.WriteBack.Unlock()
		if ref != nil {
			ref.Unref()
		}
		return err
	}
	// Clear the dirty flag BEFORE snapshotting: a write racing with this
	// sync either lands in the snapshot (shipped now, re-flagged
	// harmlessly) or re-dirties the page for the next sync. Either way
	// nothing is lost.
	w.fs.setDirty(w.fc, fr, false)
	from, data, pristine, valid := w.snapshot(fr)
	w.pages[w.npages] = wbPage{fr: fr, ref: ref, from: from, to: from + len(data), shared: pristine != nil}
	w.npages++
	w.open = true

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
		if !w.continues(base+r.Start, r.Len()) {
			if ferr := w.flush(); ferr != nil && err == nil {
				err = ferr
			}
			if w.pages[0].failed {
				break // this page is dirty again: send none of the rest
			}
		}
		if w.nsegs == 0 {
			w.off, w.n = base+r.Start, 0
		}
		w.segs[w.nsegs] = wbSeg{from + int(r.Start), from + int(r.End)}
		w.nsegs++
		w.n += r.Len()
		w.pages[w.npages-1].inRun = true
	}
	w.open = false
	if p := w.pages[w.npages-1]; !p.inRun {
		w.npages--
		w.finish(p)
	}
	return err
}

// continues reports whether n bytes at file offset off can join the run: it
// is empty, or they start where it ends and it stays within maxHostIO and
// maxSegs.
func (w *writeBack) continues(off, n int64) bool {
	return w.nsegs == 0 || w.off+w.n == off && w.n+n <= maxHostIO && w.nsegs < maxSegs
}

// snapshot copies fr's page (and pristine copy) onto the end of the walk's
// buffer, after the queued pages' snapshots and nothing else, and returns
// where the page's bytes start; the pristine copy lies past the buffer's
// length, good until the next snapshot.
func (w *writeBack) snapshot(fr *pcache.Frame) (from int, data, pristine []byte, valid int64) {
	if w.buf == nil {
		w.buf = snapBufs.Get().(*[]byte)
	}
	buf := (*w.buf)[:0]
	if w.npages > 0 {
		// Drop the snapshots of pages already done with.
		d := w.pages[0].from
		buf = (*w.buf)[:copy(*w.buf, (*w.buf)[d:])]
		for i := range w.pages[:w.npages] {
			w.pages[i].from -= d
			w.pages[i].to -= d
		}
		for i := range w.segs[:w.nsegs] {
			w.segs[i].from -= d
			w.segs[i].to -= d
		}
	}
	// A fresh buffer takes a whole run (or page) at once, not a growth step
	// per page of it.
	if run := max(maxHostIO, int(w.fs.opt.PageSize)); cap(buf) < run {
		buf = append(make([]byte, 0, run), buf...)
	}
	from = len(buf)
	data, pristine, valid = fr.Snapshot(&buf)
	*w.buf = buf[:from+len(data)]
	return from, data, pristine, valid
}

// flush issues the run as one strong write — the transport's whole blocking
// protocol, retries, timeouts and dedup included — gathered from its
// segments, on a clock forked from the actor's, which pays the issue and
// moves on while the daemon and the DMA engines work; where the fork ends is
// when the run is on the host, kept in the walk and in every page's
// Frame.CleanAt. On success the file adopts the generation the write
// produced; on failure every page of the run is dirty again. Then each
// queued page but an open one is done with (finish).
func (w *writeBack) flush() error {
	if w.nsegs == 0 {
		return nil
	}
	var srcs [maxSegs][]byte
	for i, s := range w.segs[:w.nsegs] {
		srcs[i] = (*w.buf)[s.from:s.to]
	}
	issued := w.a.clk.Now()
	w.fork = w.a.clk.Fork()
	_, gen, err := w.a.lane.WritePages(&w.fork, w.hostFd, w.off, srcs[:w.nsegs])
	w.a.busy(w.fs.opt.APICostPerPage) // the issue, as spanFetch pays per RPC
	landed := w.fork.Now()
	w.landed = max(w.landed, landed)
	for i := range w.pages[:w.npages] {
		p := &w.pages[i]
		if !p.inRun {
			continue
		}
		p.inRun = false
		p.failed = p.failed || err != nil
		if int64(landed) > p.fr.CleanAt.Load() {
			p.fr.CleanAt.Store(int64(landed))
			p.fr.WroteAt.Store(int64(issued))
		}
	}
	if err != nil {
		err = fmt.Errorf("gpufs: writing back %d bytes at %d: %w", w.n, w.off, err)
	} else {
		w.fs.adoptGeneration(w.fc, gen)
	}
	w.nsegs, w.n = 0, 0
	keep := 0
	if w.open {
		keep = 1
	}
	for _, p := range w.pages[:w.npages-keep] {
		w.finish(p)
	}
	if keep > 0 {
		w.pages[0] = w.pages[w.npages-1]
	}
	w.npages = keep
	return err
}

// finish is the end of a queued page's write-back, its last range issued: a
// failed page is dirty again (a racing writer may have re-dirtied it
// already), a written write-shared page's pristine copy advances to the bytes
// sent so future diffs are relative to this sync; then the lock and the
// reference go.
func (w *writeBack) finish(p wbPage) {
	if p.failed {
		w.fs.setDirty(w.fc, p.fr, true)
	} else if p.shared {
		p.fr.SetPristine((*w.buf)[p.from:p.to])
	}
	p.fr.WriteBack.Unlock()
	if p.ref != nil {
		p.ref.Unref()
	}
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

// done issues the run, joins the walk — the actor waits until the last write
// it issued, or found in flight, is on the host — and closes it. The error is
// the run's.
func (w *writeBack) done() error {
	err := w.flush()
	w.a.clk.AdvanceTo(w.landed)
	if w.buf != nil {
		snapBufs.Put(w.buf)
		w.buf = nil
	}
	return err
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
