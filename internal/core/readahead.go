package core

import (
	"sync"

	"gpufs/internal/core/pcache"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Read-ahead (§3.3 lists it among the optimizations a GPU buffer cache
// enables) is one engine, adaptiveReadAhead. The paper's objection to
// stride detection — GPU access patterns look chaotic because of
// non-deterministic block scheduling — is worked around by hashing
// threadblocks onto per-open-file detector slots, so each slot observes one
// block's access stream in isolation. A slot speculates once two matching
// deltas confirm a stride, when a miss on the page after its last access
// carries the first window (raCarry), or on the previous open's profile
// (history.go); it ramps its window up Linux-style while the streak holds,
// shrinks it when the file's wasted-prefetch counter overtakes its used
// counter, and refills it through spanFetch, the one asynchronous fill, which
// coalesces stride-1 runs into multi-page RPCs, amortizing per-transaction
// PCIe latency at small page sizes.

// trigger is a route by which pages arrive ahead of demand. One planner sizes
// every route: plan, which applies the one gate (ahead) and the one budget
// rule (budget). A checkpoint restore fetches what its image lists unplanned.
type trigger int

const (
	onOpen   trigger = iota // a host open carries its file's first span (offer, openPlan)
	onFault                 // a miss continuing a stream carries its window (raCarry)
	onRefill                // a confirmed stride's window refills (raIssue)
	onReplay                // the previous open's profile vouches for a stride (historyAttach)
	onBatch                 // a multi-page read fetches its later pages (readSpan)
)

// guess reports whether t fetches on a stride's word — this open's or the
// previous one's — rather than for a read that asked (a batch) or with a host
// transaction paid anyway (an open, but for its head). Only a guess reclaims.
func (t trigger) guess() bool { return t == onFault || t == onRefill || t == onReplay }

// Adaptive read-ahead parameters.
const (
	// raStreams is the number of detector slots per open file;
	// threadblocks hash onto slots by index. A power of two.
	raStreams = 32
	// raInitWindow is the speculation depth (in strides) granted when a
	// pattern is first confirmed; raMaxWindow is the ramp-up ceiling.
	raInitWindow = 4
	raMaxWindow  = 32
	// raRampStreak is the streak length at which the window starts
	// doubling toward raMaxWindow.
	raRampStreak = 4
	// maxRAStride is the largest page stride treated as a pattern;
	// beyond it the stream is considered random and nothing is
	// speculated.
	maxRAStride = 64
	// probeCostShift scales the per-page bookkeeping cost of an
	// asynchronous fill — claiming a slot, or probing a speculative
	// candidate that turns out to be resident (or claimed):
	// APICostPerPage >> probeCostShift. It is a few metadata loads, far
	// cheaper than an RPC issue.
	probeCostShift = 3
	// raMaxWindowBytes caps the window in BYTES, like Linux's read-ahead
	// (which ramps toward a byte budget, not a page count). Small pages
	// coalesce, so a deep window is nearly free and the full raMaxWindow
	// applies; at page sizes past maxHostIO every speculated page is its
	// own RPC and a deep window just burns the block's API time — 512K of
	// in-flight speculation is already plenty to hide the host round trip.
	// The window can be deeper than one span: it pipelines as several
	// in-flight RPCs.
	raMaxWindowBytes = 512 << 10
	// raDeadPage is the page size at which speculation was measured not to
	// pay (the dead zone, see ahead): Figure 4's 32K row, where each
	// speculated page went to the host as its own RPC.
	raDeadPage = 32 << 10
	// maxBatchFetch caps the frames a batch or a guess may take at once
	// (budget), bounding asynchronous frame pressure.
	maxBatchFetch = 16
)

// raStream is one adaptive read-ahead detector slot: the access history
// and speculation window of (approximately) one threadblock's stream over
// one open file.
type raStream struct {
	mu       sync.Mutex
	seen     bool  // first and lastPage are meaningful
	first    int64 // first page this stream accessed (kept for the profile)
	lastPage int64 // last page index this stream accessed
	stride   int64 // page delta of the current run
	streak   int   // consecutive accesses matching stride
	window   int   // speculation depth, in strides
	// nextPf is the speculation frontier — the first page of the pattern
	// not yet issued — valid when frontierOK. It keeps overlapping
	// windows from re-probing pages already in flight.
	nextPf     int64
	frontierOK bool
}

// probeCost is the virtual cost of one page's bookkeeping in spanFetch; see
// the cost rule there.
func (fs *FS) probeCost() simtime.Duration {
	return fs.opt.APICostPerPage >> probeCostShift
}

// spanPages is how many pages one host transaction holds: maxHostIO of them,
// and at least one.
func (fs *FS) spanPages() int64 { return max(maxHostIO/fs.opt.PageSize, 1) }

// ahead is the planner's gate: whether t may fetch pages of f ahead of demand
// at all. Never for a file the application cannot read or writes only once
// (O_GWRONCE pages are never fetched). A batch pipelines what a read asked
// for, so the prototype batches too; every other route is the extended
// system's (speculate). An open does not carry a file it truncates.
//
// A guess stays out of the dead zone, page sizes over half raDeadPage and under
// twice it: there speculation was measured not to pay its issue (API call +
// probe on the block's clock) back — with each speculated 32K page its own
// RPC, a 100% hit rate still netted a ~3 % throughput LOSS. Whether
// coalescing under maxHostIO repays it is not yet measured.
func (fs *FS) ahead(t trigger, f *file) bool {
	switch {
	case f.writeOnce || !f.readable:
		return false
	case t == onBatch:
		return true
	case !fs.speculate:
		return false
	case t == onOpen:
		return f.flags&O_TRUNC == 0
	}
	ps := fs.opt.PageSize
	return 2*ps <= raDeadPage || ps >= 2*raDeadPage
}

// budget is the planner's budget rule: how many frames t may take now. An open
// takes what is free; it never evicts (a head in a dry pool is a guess,
// openPlan). Anything else takes maxBatchFetch, or half its frames when it
// has fewer than twice that, so demand faults keep priority as the pool
// drains: a batch counts the free frames, a guess those and the closed files'
// clean pages, the only data it may reclaim (takeFrame).
func (fs *FS) budget(t trigger) int64 {
	frames := int64(fs.cache.FreeFrames())
	switch {
	case t == onOpen:
		return frames
	case t.guess():
		frames += fs.ft.closedCleanPages()
	}
	if frames < 2*maxBatchFetch {
		return frames / 2
	}
	return maxBatchFetch
}

// plan is the planner: how many of the n pages from start, stride apart, t
// fetches ahead of demand for f now, with ahead pages of the window they
// extend already in flight. Nothing when the gate (ahead) is shut, and never
// more than the budget. An open and a batch take that as is: an open does not
// know its file's size yet, and a batch lies within its read.
func (fs *FS) plan(t trigger, f *file, start, n, stride, ahead int64) int64 {
	if !fs.ahead(t, f) {
		return 0
	}
	if !t.guess() {
		return min(n, fs.budget(t))
	}
	fc, ps := f.fc, fs.opt.PageSize
	// When waste has outright overtaken use (a cache too tight for the
	// working set — speculative pages are being evicted before their
	// consumer returns), the file stands down from speculation entirely: a
	// prefetch that will be reclaimed unconsumed costs a daemon round trip, a
	// DMA, and an eviction, and hides nothing.
	if used, wasted := fc.prefetchUsed.Load(), fc.prefetchWasted.Load(); wasted > used && used+wasted >= 64 {
		return 0
	}
	// Linux's async mark: while more than half the window (ahead + n) is still
	// in flight there is runway, and topping up now would issue a 1-page span
	// per access — forfeiting coalescing. The refill waits until the consumer
	// has eaten through half the window, then goes out whole, so steady state
	// issues window/2-page vectored RPCs. Only while pages coalesce (ps <
	// maxHostIO): past that a span is one RPC per page regardless, and a
	// deferred refill dumps the window's API cost on the block in a burst.
	if ahead > (ahead+n)/2 && ps < maxHostIO {
		return 0
	}
	// Clamp to the file and to the budget. An open file's page or a dirty one
	// is never taken, so past the budget a tight pool shrinks the guess, not
	// resident data.
	var toEnd int64
	if lastFile := (fc.size.Load() - 1) / ps; stride > 0 && start <= lastFile {
		toEnd = (lastFile-start)/stride + 1
	} else if stride < 0 && start >= 0 {
		toEnd = start/(-stride) + 1
	}
	want := n
	// Global speculation cap: at most a quarter of the frame pool may
	// hold unconsumed speculative pages at once. Without it, dozens of
	// confident streams sharing a tight cache prefetch each other's
	// demand data out of residence — the waste feedback would notice,
	// but only after the damage.
	n = min(n, toEnd, fs.budget(t), int64(fs.cache.NumFrames()/4)-fs.specPending.Load())
	// Whole spans: with runway in flight a unit stride refills in whole host
	// transactions, never 1- or 2-page RPCs, and a pool or cap that leaves
	// room for less than a span holds the refill until one fits. A window
	// under a span still refills as is, and the file's tail is exempt.
	if span := fs.spanPages(); ahead > 0 && n < toEnd && n >= span && stride == 1 {
		n -= n % span
	} else if ahead > 0 && n < toEnd && n < span && n < want {
		n = 0
	}
	return n
}

// openPlan is plan for a host open of f: the n frames it offers, and whether
// it asks for the head — a first span that is less than the file, and a guess.
// Only a strong open asks, where the gate admits a guess. Only a dry pool
// reclaims for an offer, for a head, up to a guess's budget: reclaim = n.
func (fs *FS) openPlan(f *file, strong bool) (n, reclaim int64, head bool) {
	n = fs.plan(onOpen, f, 0, fs.spanPages(), 1, 0)
	if head = strong && fs.ahead(onOpen, f) && fs.ahead(onFault, f); n == 0 && head {
		reclaim = min(fs.spanPages(), fs.budget(onFault))
	}
	return n + reclaim, reclaim, head
}

// adaptiveReadAhead is the per-access hook of the engine: the calling
// block just accessed pages [first, last] of f. It updates the block's
// detector slot and, when the slot is confident, issues the speculation
// window beyond the access.
func (fs *FS) adaptiveReadAhead(b *gpu.Block, f *file, first, last int64) {
	if !fs.ahead(onRefill, f) {
		return // a slot learns nothing its stream may not act on
	}
	st := f.streamFor(b.Idx)
	t := onRefill

	st.mu.Lock()
	if !st.seen {
		st.seen = true
		st.first = first
		st.lastPage = last
		if st.streak == 0 {
			st.mu.Unlock()
			return
		}
		// Seeded from the previous open's profile (historyAttach): the
		// stride is already confirmed, so the first access speculates —
		// still on the profile's word, so it tops up whatever the
		// open-time pre-warm could not place (a dry pool with no closed
		// clean page left to reclaim, usually) under the same tag. A
		// stream that changed its pattern breaks the streak on its next
		// access like any other.
		t = onReplay
	} else {
		delta := first - st.lastPage
		if delta == 0 {
			// Re-access of the same page: no new direction information.
			st.mu.Unlock()
			return
		}
		if st.streak > 0 && delta == st.stride {
			st.streak++
		} else {
			st.stride = delta
			st.streak = 1
			st.window = raInitWindow
			st.frontierOK = false
		}
		st.lastPage = last
	}
	if st.streak < 2 || st.stride > maxRAStride || st.stride < -maxRAStride {
		// Not confident: random-looking streams speculate nothing.
		st.mu.Unlock()
		return
	}
	fs.raIssue(b, f, st, last+st.stride, t)
}

// raIssue is the issue half of the engine: it sizes slot st's window from
// the file's used/wasted feedback and issues the part of it not yet in
// flight, given that the stream's predicted next access is page base, as t (a
// refill or a replay). The caller holds st.mu; raIssue releases it.
func (fs *FS) raIssue(b *gpu.Block, f *file, st *raStream, base int64, t trigger) {
	ps := fs.opt.PageSize
	stride := st.stride

	// Window feedback: wasted prefetch overtaking used prefetch shrinks
	// the window back toward the initial size; a sustained streak doubles
	// it toward the ceiling.
	used, wasted := f.fc.prefetchUsed.Load(), f.fc.prefetchWasted.Load()
	maxWindow := max(min(raMaxWindow, int(raMaxWindowBytes/ps)), raInitWindow)
	switch {
	case wasted > used/2+4:
		if st.window > raInitWindow {
			st.window /= 2
		}
	case st.streak >= raRampStreak && st.window < maxWindow &&
		(stride == 1 || stride == -1):
		// Only unit strides ramp: they coalesce into vectored RPCs, so a
		// deep window is cheap, and sequential streams are long. A strided
		// window pays one RPC per page and covers window*stride pages of
		// file distance — ramping it overshoots the scan's end for little
		// gain.
		st.window *= 2
	}
	st.window = min(st.window, maxWindow)

	// The window starts at the predicted next access; skip the part
	// already issued by previous calls (the frontier).
	start := base
	if st.frontierOK && (st.nextPf-base)*stride > 0 {
		start = st.nextPf
	}
	ahead := (start - base) / stride
	n := fs.plan(t, f, start, int64(st.window)-ahead, stride, ahead)
	if n > 0 {
		st.nextPf, st.frontierOK = start+n*stride, true
	}
	st.mu.Unlock()
	if n > 0 {
		spec := pcache.SpecPending
		if t == onReplay {
			spec = pcache.SpecReplay
		}
		fs.spanFetch(b, f, start, n, stride, spec)
	}
}

// raCarry is read-ahead's synchronous half: a miss on the page after the
// slot's last access (no other stride confirmed) claims into window what the
// planner allows of a host transaction after page for its fault to read, and
// advances the slot past them so the access's hook issues nothing twice.
func (fs *FS) raCarry(b *gpu.Block, f *file, page int64, window []pageRef) int {
	st := f.stream(b.Idx)
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.seen || page != st.lastPage+1 || st.streak >= 2 && st.stride != 1 {
		return 0
	}
	span := fs.spanPages()
	n := int(fs.plan(onFault, f, page+1, min(span-1, int64(len(window))), 1, 0))
	k := 0
	for ; k < n; k++ {
		if window[k] = fs.claimFill(b, f, page+1+int64(k), pcache.SpecPending, n-k); window[k].fr == nil {
			break
		}
	}
	if k > 0 { // this delta confirms stride 1
		fs.prime(st, st.lastPage, page+1+int64(k))
	}
	return k
}

// prime stands slot st's stream at page last on stride 1 with a span's window at
// least and its frontier at next, so refills go out as whole spans: after a
// carrying fault (raCarry), and from page −1 after a head (accept). Holds st.mu.
func (fs *FS) prime(st *raStream, last, next int64) {
	if st.streak == 0 || st.stride != 1 {
		st.stride, st.streak, st.window = 1, 1, raInitWindow
	}
	st.seen, st.lastPage = true, last
	st.window, st.nextPf, st.frontierOK = max(st.window, int(fs.spanPages())), next, true
}

// spanFetch is the one asynchronous fill: it fetches the count pages start,
// start+stride, … without blocking the caller, coalescing adjacent claimable
// pages into single multi-page syscalls (gsys.Client.ReadAsync) — one ring
// transaction and one DMA per run, which closes the per-transaction latency
// gap at small page sizes. A page that cannot be claimed (resident or in
// flight), a stride past the next page, or maxHostIO splits the run.
//
// spec is stamped on the fetched frames: a guess's (SpecPending, SpecReplay
// on a profile's word) joins the prefetch accounting, the in-flight cap and
// the OpPrefetch trace; SpecNone — a batch, a checkpoint restore — is
// pipelining, which would flatter the hit rate.
//
// A dry frame pool stops a SpecNone span: the page walk that follows faults
// the rest in. A guess first reclaims what it still wants from the closed
// files' clean pages (reclaimForSpec) — §4.2's first victims, which cost no
// round trip — and stops only when they run out too.
//
// Cost on the block's clock: a fetched page costs its claim bookkeeping
// (probeCost) and each RPC APICostPerPage — amortizing the call over a run
// is the point of coalescing — and a reclaimed page APICostPerPage, as it
// does a demand fault. A page skipped as resident or in flight costs
// probeCost only when the fetch is speculative: a known-needed batch is
// followed by a page walk that pays that page's radix lookup anyway.
func (fs *FS) spanFetch(b *gpu.Block, f *file, start, count, stride int64, spec int32) {
	ps := fs.opt.PageSize
	maxRun := int(fs.spanPages())
	var run []pageRef // claimed, allocated, not yet issued
	var runFirst int64
	flush := func() {
		if len(run) == 0 {
			return
		}
		issueStart := b.Clock.Now()
		dsts := make([][]byte, len(run))
		for i, cl := range run {
			dsts[i] = cl.fr.Data
		}
		ns, done, err := fs.lane(b).ReadAsync(b.Clock, f.hostFd, runFirst*ps, dsts)
		if err != nil {
			fs.abort(b.Idx, f.fc, run...)
			run = run[:0]
			return
		}
		fs.publishRun(b, f, run, ns, done, spec, runFirst*ps, issueStart)
		b.Busy(fs.opt.APICostPerPage)
		run = run[:0]
	}

	for i := int64(0); i < count; i++ {
		idx := start + i*stride
		r := fs.claimFill(b, f, idx, spec, int(count-i))
		if r.fp == nil {
			if spec != pcache.SpecNone {
				b.Busy(fs.probeCost())
			}
			flush()
			continue
		}
		if r.fr == nil {
			break
		}
		if len(run) > 0 && idx != runFirst+int64(len(run)) {
			flush()
		}
		if len(run) == 0 {
			runFirst = idx
		}
		run = append(run, r)
		if len(run) >= maxRun {
			flush()
		}
	}
	flush()
}

// claimFill claims page idx of f for a fill and takes it a frame, speculation
// (spec not SpecNone) reclaiming up to want closed clean pages from a dry pool.
// fp is nil when the page cannot be claimed, fr when no frame was left.
func (fs *FS) claimFill(b *gpu.Block, f *file, idx int64, spec int32, want int) pageRef {
	fc := f.fc
	g := fc.tree.Pin()
	fp, leaf := fc.tree.LookupLeaf(uint64(idx))
	if fp == nil {
		fp, leaf = fc.tree.Insert(uint64(idx))
	}
	ok := claim(fp, leaf)
	g.Exit()
	if !ok {
		return pageRef{}
	}
	if spec == pcache.SpecNone {
		want = 0
	}
	fr := fs.takeFrame(b, fc, idx*fs.opt.PageSize, want)
	if fr == nil {
		fs.abort(b.Idx, fc, pageRef{fp: fp})
	}
	return pageRef{fr: fr, fp: fp}
}

// publishRun publishes run, the pages from file offset off one read issued at
// start filled (ns[i] bytes in run[i]), usable at readyAt, as spec, each at a
// claim's probeCost; speculation joins the prefetch accounting and trace.
func (fs *FS) publishRun(b *gpu.Block, f *file, run []pageRef, ns []int, readyAt simtime.Time, spec int32, off int64, start simtime.Time) {
	for i, r := range run {
		fs.publish(b, f, r, ns[i], readyAt, spec)
		b.Busy(fs.probeCost())
		r.release()
	}
	if k := int64(len(run)); spec != pcache.SpecNone {
		fs.prefetchIssued.Add(k)
		fs.specPending.Add(k)
		if spec == pcache.SpecReplay {
			fs.historyIssued.Add(k)
		}
		fs.record(b, trace.OpPrefetch, f.path, off, k*fs.opt.PageSize, start, nil)
	}
}
