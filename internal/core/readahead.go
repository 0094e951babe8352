package core

import (
	"sync"

	"gpufs/internal/core/pcache"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Read-ahead (§3.3 lists it among the optimizations a GPU buffer cache
// enables) is one engine, adaptiveReadAhead. The paper's objection to
// stride detection — GPU access patterns look chaotic because of
// non-deterministic block scheduling — is worked around by hashing
// threadblocks onto per-open-file detector slots, so each slot observes one
// block's access stream in isolation. A slot speculates only after two
// accesses confirm a stride (or a profile recorded by the previous open
// vouches for it, see history.go), ramps its window up Linux-style while
// the streak holds, shrinks it when the file's wasted-prefetch counter
// overtakes its used counter, and issues the window through spanFetch, the
// one asynchronous fill, which coalesces stride-1 runs into multi-page RPCs,
// amortizing per-transaction PCIe latency at small page sizes.

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
	// pay (raDeadZone): Figure 4's 32K row, where each speculated page went
	// to the host as its own RPC.
	raDeadPage = 32 << 10
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

// raDeadZone reports whether the page size sits where speculation was
// measured not to pay its fixed issue cost (API call + probe on the block's
// clock) back: over half raDeadPage and under twice it. There, at 32K pages
// with each speculated page its own RPC, a 100% hit rate still netted a ~3 %
// throughput LOSS, so such streams speculate nothing. The zone is a measured
// boundary, not one derived from maxHostIO: whether coalescing under the
// host-I/O bound repays the issue at 32K too is ROADMAP item 6's to measure.
func (fs *FS) raDeadZone() bool {
	ps := fs.opt.PageSize
	return 2*ps > raDeadPage && ps < 2*raDeadPage
}

// adaptiveReadAhead is the per-access hook of the engine: the calling
// block just accessed pages [first, last] of f. It updates the block's
// detector slot and, when the slot is confident, issues the speculation
// window beyond the access.
func (fs *FS) adaptiveReadAhead(b *gpu.Block, f *file, first, last int64) {
	if f.writeOnce || !f.readable || fs.raDeadZone() {
		return
	}
	st := &f.ra[b.Idx&(raStreams-1)]
	spec := pcache.SpecPending

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
		spec = pcache.SpecReplay
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
	fs.raIssue(b, f, st, last+st.stride, spec)
}

// raIssue is the issue half of the engine: it sizes slot st's window from
// the file's used/wasted feedback and issues the part of it not yet in
// flight, given that the stream's predicted next access is page base. spec
// is the speculation state stamped on the fetched frames. The caller holds
// st.mu; raIssue releases it.
func (fs *FS) raIssue(b *gpu.Block, f *file, st *raStream, base int64, spec int32) {
	fc := f.fc
	ps := fs.opt.PageSize
	stride := st.stride

	// Window feedback: wasted prefetch overtaking used prefetch shrinks
	// the window back toward the initial size; a sustained streak doubles
	// it toward the ceiling. When waste has outright overtaken use (a
	// cache too tight for the working set — speculative pages are being
	// evicted before their consumer returns), the file stands down from
	// speculation entirely: a prefetch that will be reclaimed unconsumed
	// costs a daemon round trip, a DMA, and an eviction, and hides
	// nothing.
	used, wasted := fc.prefetchUsed.Load(), fc.prefetchWasted.Load()
	if wasted > used && used+wasted >= 64 {
		st.mu.Unlock()
		return
	}
	maxWindow := raMaxWindow
	if byBytes := int(raMaxWindowBytes / ps); byBytes < maxWindow {
		maxWindow = byBytes
	}
	if maxWindow < raInitWindow {
		maxWindow = raInitWindow
	}
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
	if st.window > maxWindow {
		st.window = maxWindow
	}

	// The window starts at the predicted next access; skip the part
	// already issued by previous calls (the frontier).
	start := base
	if st.frontierOK {
		if (stride > 0 && st.nextPf > start) || (stride < 0 && st.nextPf < start) {
			start = st.nextPf
		}
	}
	ahead := (start - base) / stride
	// Hysteresis (Linux's async mark): while more than half the window is
	// still in flight there is runway, and topping up now would issue a
	// 1-page span per access — forfeiting coalescing. Wait until the
	// consumer has eaten through half the window, then refill it whole, so
	// steady state issues window/2-page vectored RPCs. Only worth it when
	// pages actually coalesce (ps < maxHostIO): past that, a span is one
	// RPC per page regardless, and deferred refills just dump the whole
	// window's API cost on the block in a burst — continuous 1-page top-up
	// spreads it evenly instead.
	if ahead > int64(st.window)/2 && ps < maxHostIO {
		st.mu.Unlock()
		return
	}
	n := int64(st.window) - ahead
	// Clamp to the file and to the frame-pool budget: free frames plus the
	// closed files' clean pages, the only resident data speculation may
	// reclaim (spanFetch). An open file's page or a dirty one is never
	// taken, so past those a tight pool shrinks the issue, not resident data.
	if lastFile := (fc.size.Load() - 1) / ps; stride > 0 {
		if start > lastFile {
			n = 0
		} else if maxN := (lastFile-start)/stride + 1; n > maxN {
			n = maxN
		}
	} else {
		if start < 0 {
			n = 0
		} else if maxN := start/(-stride) + 1; n > maxN {
			n = maxN
		}
	}
	want := n
	if budget := int64(fs.specBudget()); n > budget {
		n = budget
	}
	// Global speculation cap: at most a quarter of the frame pool may
	// hold unconsumed speculative pages at once. Without it, dozens of
	// confident streams sharing a tight cache prefetch each other's
	// demand data out of residence — the waste feedback would notice,
	// but only after the damage.
	if room := int64(fs.cache.NumFrames()/4) - fs.specPending.Load(); n > room {
		n = room
	}
	// Hold rule: a pool or cap that leaves room for less than one
	// coalesced span would turn the refill into 1-page RPCs, one per
	// access, until demand frees more. While runway is in flight nothing
	// is lost by waiting for a whole span to fit.
	if n <= 0 || (n < want && ahead > 0 && n < maxHostIO/ps) {
		st.mu.Unlock()
		return
	}
	st.nextPf = start + n*stride
	st.frontierOK = true
	st.mu.Unlock()

	fs.spanFetch(b, f, start, n, stride, spec, gsys.GranBlock)
}

// spanFetch is the one asynchronous fill: it fetches the count pages start,
// start+stride, … without blocking the caller, coalescing adjacent claimable
// pages into single multi-page syscalls (gsys.Client.ReadAsync) — one ring
// transaction and one DMA per run, which closes the per-transaction latency
// gap at small page sizes. A page that cannot be claimed (resident or in
// flight), a stride past the next page, or maxHostIO splits the run.
//
// spec is stamped on the fetched frames. pcache.SpecPending (a stride this
// open's own accesses confirmed) and pcache.SpecReplay (a stride only the
// previous open's profile vouches for) join the prefetch accounting, the
// in-flight cap and the OpPrefetch trace; pcache.SpecNone is for pages known
// to be needed — the later pages of a multi-page read, checkpoint restores —
// which are pipelining, not a guess, and would flatter the hit rate. gran is
// the granularity the RPCs are stamped with (gpread_warp's is GranWarp).
//
// A dry frame pool stops a SpecNone span: the page walk that follows faults
// the rest in. A confirmed stream's span first reclaims what it still wants
// from the closed files' clean pages (reclaimForSpec) — §4.2's first victims,
// which cost no round trip — and stops only when they run out too.
//
// Cost on the block's clock: a fetched page costs its claim bookkeeping
// (probeCost) and each RPC APICostPerPage — amortizing the call over a run
// is the point of coalescing — and a reclaimed page APICostPerPage, as it
// does a demand fault. A page skipped as resident or in flight costs
// probeCost only when the fetch is speculative: a known-needed batch is
// followed by a page walk that pays that page's radix lookup anyway.
func (fs *FS) spanFetch(b *gpu.Block, f *file, start, count, stride int64, spec int32, gran gsys.Granularity) {
	fc := f.fc
	ps := fs.opt.PageSize

	maxRun := max(int(maxHostIO/ps), 1)
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
		ns, done, err := fs.lane(b).Gran(gran).ReadAsync(b.Clock, f.hostFd, runFirst*ps, dsts)
		if err != nil {
			for _, cl := range run {
				fs.abort(fc, cl)
			}
			run = run[:0]
			return
		}
		for i, cl := range run {
			fs.publish(b, f, cl, ns[i], done, spec)
			b.Busy(fs.probeCost())
			cl.release()
		}
		b.Busy(fs.opt.APICostPerPage)
		if spec != pcache.SpecNone {
			fs.prefetchIssued.Add(int64(len(run)))
			fs.specPending.Add(int64(len(run)))
			if spec == pcache.SpecReplay {
				fs.historyIssued.Add(int64(len(run)))
			}
			fs.record(b, trace.OpPrefetch, f.path, runFirst*ps, int64(len(run))*ps, issueStart, nil)
		}
		run = run[:0]
	}

	for i := int64(0); i < count; i++ {
		idx := start + i*stride
		g := fc.tree.Pin()
		fp, leaf := fc.tree.LookupLeaf(uint64(idx))
		if fp == nil {
			fp, leaf = fc.tree.Insert(uint64(idx))
		}
		ok := claim(fp, leaf)
		g.Exit()
		if !ok {
			if spec != pcache.SpecNone {
				b.Busy(fs.probeCost())
			}
			flush()
			continue
		}
		fr := fs.takeFrame(b.Idx, fc, idx*ps)
		if fr == nil && spec != pcache.SpecNone && fs.reclaimForSpec(b, int(count-i)) > 0 {
			fr = fs.takeFrame(b.Idx, fc, idx*ps)
		}
		if fr == nil {
			fs.abort(fc, pageRef{fp: fp})
			break
		}
		if len(run) > 0 && idx != runFirst+int64(len(run)) {
			flush()
		}
		if len(run) == 0 {
			runFirst = idx
		}
		run = append(run, pageRef{fr: fr, fp: fp})
		if len(run) >= maxRun {
			flush()
		}
	}
	flush()
}
