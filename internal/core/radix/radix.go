// Package radix implements the per-file buffer-cache index of GPUfs: a
// dynamic radix tree mapping page numbers to fpage slots, designed for
// lock-free traversal by thousands of concurrent GPU threads (§4.2 of the
// paper).
//
// The concurrency design follows the paper:
//
//   - Reads are lock-free; updates (inserting nodes, deleting reclaimed
//     leaves) take the tree lock and maintain the invariants readers rely
//     on: child pointers are published atomically and node fields are fully
//     initialized before a node becomes visible.
//   - Reads can fail — a slot may be concurrently initialized or reclaimed —
//     in which case the caller retries; GPUfs retries once more without
//     locking and falls back to a locked lookup on its third attempt.
//   - Each tree carries a unique identifier that is propagated to every
//     page frame it references; the identifier combined with the page
//     offset lets a reader validate that the frame it reached through a
//     possibly stale path is in fact the page it wanted.
//   - fpages are allocated by value inside last-level nodes (in-place data
//     structures, minimizing pointer traversal), and last-level nodes are
//     threaded onto a doubly-linked FIFO list used by the paging algorithm.
//
// Memory reclamation is epoch-based (internal/core/epoch), playing the
// role the original's in-place arenas play on the GPU. Detached leaves are
// RECYCLED through a per-tree pool — republished later with a different
// base offset and fresh page identities — so "the GC keeps stale pointers
// alive" is no longer a safety argument: a reader still holding a pointer
// to a recycled leaf would observe a valid-looking node for the wrong file
// region. Instead, every traversal runs under an epoch guard (Pin/Exit),
// RemoveLeaf retires the detached leaf to the epoch domain, and the leaf
// only reaches the recycle pool after a grace period proves no guard from
// before the unlink survives. Readers that CLAIM a slot (TryBeginInit) or
// hold a page reference (TryRef) pin the leaf beyond the guard: RemoveLeaf
// refuses to detach a leaf with any non-Empty slot, so a held reference
// keeps the leaf out of the pool regardless of epochs.
package radix

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"gpufs/internal/core/epoch"
)

// Fanout configuration: 6 bits per level, 64-way nodes.
const (
	bitsPerLevel = 6
	fanout       = 1 << bitsPerLevel
	levelMask    = fanout - 1
	maxLevels    = 11 // covers 64^11 pages — far beyond any file
)

// FPage is a page slot in a last-level node. It manages concurrent access
// to its page frame with a reference count and a small state machine that
// plays the role of the paper's per-fpage spinlock: initialization,
// read/write access, and page-out are mutually exclusive.
type FPage struct {
	state atomic.Int32
	refs  atomic.Int32
	maps  atomic.Int32 // live gmmap windows onto the page
	frame atomic.Int32 // pframe index, or -1
}

// FPage states.
const (
	slotEmpty    int32 = iota // no frame attached
	slotInit                  // a block is fetching/zeroing the page
	slotReady                 // frame attached and valid
	slotEvicting              // paging out
)

// Frame reports the attached pframe index, or -1.
func (p *FPage) Frame() int32 { return p.frame.Load() }

// Ready reports whether the slot currently holds a valid frame.
func (p *FPage) Ready() bool { return p.state.Load() == slotReady }

// Empty reports whether the slot holds nothing at all — not even an
// in-flight initialization or page-out. Only leaves whose slots are all
// Empty may be detached; an Init-state slot owns a frame that would
// otherwise leak.
func (p *FPage) Empty() bool { return p.state.Load() == slotEmpty }

// Refs reports the current reference count (for tests and stats).
func (p *FPage) Refs() int32 { return p.refs.Load() }

// move is a transition only the slot's owner may take — the initializer of an
// Init slot, the evictor of an Evicting one: a compare-and-swap from the one
// state it may leave, so the check is the transition itself, and a lifecycle
// bug stops the run instead of corrupting a page. (TryBeginInit and TryEvict
// race for ownership and report a loss by returning false.)
func (p *FPage) move(name string, from, to int32) {
	if !p.state.CompareAndSwap(from, to) {
		panic(fmt.Sprintf("radix: %s on a slot in state %d, want %d", name, p.state.Load(), from))
	}
}

// TryBeginInit attempts to claim an empty slot for initialization. The
// winner must attach a frame and call FinishInit (or AbortInit).
func (p *FPage) TryBeginInit() bool {
	return p.state.CompareAndSwap(slotEmpty, slotInit)
}

// FinishInit publishes the frame index and makes the slot Ready with one
// reference held by the initializer (protecting the page during its first
// use, as reference counts protect pages during memory transfers, §4.1).
//
// The reference is added, not stored: a racing TryRef bumps the count
// before it looks at the state, and overwriting that transient bump would
// leave either the TryRef that then sees Ready, or the initializer, holding
// a page whose count says nobody does.
func (p *FPage) FinishInit(frame int32) {
	p.frame.Store(frame)
	p.refs.Add(1)
	p.move("FinishInit", slotInit, slotReady)
}

// AbortInit returns a claimed slot to empty (initialization failed).
func (p *FPage) AbortInit() {
	p.frame.Store(-1)
	p.move("AbortInit", slotInit, slotEmpty)
}

// TryRef attempts to take a read/write reference on a Ready slot. It can
// fail if the slot is empty, still initializing, or being paged out — the
// caller retries per the tree's retry protocol.
func (p *FPage) TryRef() bool {
	p.refs.Add(1)
	if p.state.Load() != slotReady {
		p.refs.Add(-1)
		return false
	}
	return true
}

// Unref drops a reference taken by TryRef or FinishInit.
func (p *FPage) Unref() {
	p.refs.Add(-1)
}

// MapRef records a live gmmap window onto the page, on top of the plain
// reference the mapping already holds. gfsync consults this — not the raw
// reference count — to decide which pages it must leave alone: mapped
// pages are the application's to gmsync (Table 1), while a page that is
// merely referenced by an in-flight gread/gwrite or a concurrent gfsync
// is safe to write back (the frame snapshot protocol tolerates racing
// writers).
func (p *FPage) MapRef() {
	p.maps.Add(1)
}

// MapUnref drops a MapRef at gmunmap.
func (p *FPage) MapUnref() {
	p.maps.Add(-1)
}

// Mapped reports whether any gmmap window onto the page is live.
func (p *FPage) Mapped() bool { return p.maps.Load() > 0 }

// TryEvict attempts to transition a Ready, unreferenced slot to Evicting.
// On success the caller owns the frame and must call FinishEvict once the
// frame is released, or CancelEvict to keep the page. Fails if any
// reference is held.
func (p *FPage) TryEvict() bool {
	if !p.state.CompareAndSwap(slotReady, slotEvicting) {
		return false
	}
	if p.refs.Load() != 0 {
		// A racing TryRef got in before our CAS; back off.
		p.CancelEvict()
		return false
	}
	return true
}

// CancelEvict puts a page claimed by TryEvict back: the slot is Ready again
// with the frame it had, and no reference is taken or dropped.
func (p *FPage) CancelEvict() {
	p.move("CancelEvict", slotEvicting, slotReady)
}

// FinishEvict completes a successful TryEvict, emptying the slot.
func (p *FPage) FinishEvict() {
	p.frame.Store(-1)
	p.move("FinishEvict", slotEvicting, slotEmpty)
}

// Node is a radix-tree node. Interior nodes hold child pointers; last-level
// (leaf) nodes hold fanout fpages by value and live on the tree's FIFO
// list for the paging algorithm.
type Node struct {
	level int32  // 0 = leaf
	base  uint64 // first page index covered

	children [fanout]atomic.Pointer[Node] // interior only
	pages    [fanout]FPage                // leaf only
	// dirty is the leaf's dirty hint: bit i is set while pages[i]'s frame
	// holds writes the host lacks, as far as HintDirty has been told.
	dirty atomic.Uint64 // leaf only

	// FIFO hooks, managed by the tree under its lock; traversed
	// lock-free by the paging algorithm.
	fifoNext atomic.Pointer[Node]
	fifoPrev atomic.Pointer[Node]
	onFIFO   bool
	detached atomic.Bool
}

// Base reports the first page index covered by a leaf.
func (n *Node) Base() uint64 { return n.base }

// Page returns the i'th fpage of a leaf node.
func (n *Node) Page(i int) *FPage { return &n.pages[i] }

// DirtyHint reports the leaf's dirty mask: bit i for Page(i) (HintDirty).
func (n *Node) DirtyHint() uint64 { return n.dirty.Load() }

// Detached reports whether the leaf has been removed from its tree.
func (n *Node) Detached() bool { return n.detached.Load() }

// Tree is one file's buffer-cache index.
type Tree struct {
	id uint64

	mu     sync.Mutex
	root   atomic.Pointer[Node]
	height atomic.Int32 // levels below the root; root covers fanout^(height+1) pages

	// FIFO list of leaves, newest at head.
	fifoHead atomic.Pointer[Node]
	fifoTail atomic.Pointer[Node]
	leaves   int

	// dom is the tree's epoch-reclamation domain. Every lock-free
	// traversal runs under one of its guards; RemoveLeaf retires detached
	// leaves into it. Per-tree domains keep one file's stalled scan from
	// delaying another file's reclamation.
	dom epoch.Domain

	// poolMu guards the recycle pool of grace-period-expired leaves.
	// Deliberately separate from mu: retire callbacks run inside
	// epoch-domain advancement, which Retire triggers while mu is held —
	// lock order is mu → dom.mu → poolMu, and callbacks only ever take
	// poolMu.
	poolMu   sync.Mutex
	pool     []*Node
	recycles atomic.Int64

	lockFreeHits atomic.Int64
	lockedHits   atomic.Int64
}

var treeIDs atomic.Uint64

// NewTree creates an empty tree with a process-unique identifier.
func NewTree() *Tree {
	return &Tree{id: treeIDs.Add(1)}
}

// ID reports the tree's unique identifier, which owners propagate to every
// page frame referenced by the tree.
func (t *Tree) ID() uint64 { return t.id }

// Pin opens an epoch guard on the tree's reclamation domain. Callers must
// hold a guard across any lock-free traversal AND across every use of the
// *FPage / *Node pointers it produced: Lookup, LookupLocked, Insert,
// OldestLeaves results, and FIFO walks. Exit the guard before blocking
// operations (frame allocation, RPC waits) — a held guard never blocks
// writers, but it does delay leaf recycling.
func (t *Tree) Pin() epoch.Guard { return t.dom.Enter() }

// EpochDomain exposes the reclamation domain (tests and stats).
func (t *Tree) EpochDomain() *epoch.Domain { return &t.dom }

// Recycles reports how many detached leaves survived their grace period
// and were reused by a later Insert.
func (t *Tree) Recycles() int64 { return t.recycles.Load() }

// CountRetry records a failed unlocked attempt that forced a retry; the
// paper's Table 2 lumps these into the locked-access count ("Locked access
// count also includes unlocked retries").
func (t *Tree) CountRetry() { t.lockedHits.Add(1) }

// Stats reports how many lookups completed lock-free versus via the locked
// path (Table 2's instrumentation; the locked count includes fallbacks
// after failed unlocked retries).
func (t *Tree) Stats() (lockFree, locked int64) {
	return t.lockFreeHits.Load(), t.lockedHits.Load()
}

func capacityForHeight(h int32) uint64 {
	// fanout^(h+1); saturate to avoid overflow.
	if h >= maxLevels {
		return ^uint64(0)
	}
	return uint64(1) << (uint(h+1) * bitsPerLevel)
}

// lookupLeaf walks the tree without taking locks and returns the leaf
// covering idx, or nil if the path is not materialized. The walk is guided
// by each node's own immutable level field rather than the tree's height,
// so a reader racing with a root swap always follows a self-consistent
// path. The caller must hold an epoch guard.
func (t *Tree) lookupLeaf(idx uint64) *Node {
	n := t.root.Load()
	if n == nil || idx >= capacityForHeight(n.level) {
		return nil
	}
	for n != nil && n.level > 0 {
		slot := (idx >> (uint(n.level) * bitsPerLevel)) & levelMask
		n = n.children[slot].Load()
	}
	return n
}

// Lookup performs one lock-free lookup attempt and returns the fpage slot
// for page idx, or nil if absent. The caller must hold an epoch guard
// (Pin), must validate the attached frame (tree id + offset), and is
// responsible for the retry protocol; use LookupLocked as the final
// fallback.
func (t *Tree) Lookup(idx uint64) *FPage {
	p, _ := t.LookupLeaf(idx)
	return p
}

// LookupLeaf is Lookup returning the containing leaf as well, so callers
// that claim the slot for initialization can check leaf.Detached() after
// TryBeginInit (the claim/detach Dekker protocol of RemoveLeaf).
func (t *Tree) LookupLeaf(idx uint64) (*FPage, *Node) {
	leaf := t.lookupLeaf(idx)
	if leaf == nil {
		return nil, nil
	}
	t.lockFreeHits.Add(1)
	return &leaf.pages[idx&levelMask], leaf
}

// LookupLocked performs a lookup under the tree lock: the third-attempt
// fallback of the retry protocol. The lock orders the walk against
// concurrent mutation, but the result outlives it — callers still hold an
// epoch guard across use of the returned slot.
func (t *Tree) LookupLocked(idx uint64) *FPage {
	p, _ := t.LookupLockedLeaf(idx)
	return p
}

// LookupLockedLeaf is LookupLocked returning the containing leaf.
func (t *Tree) LookupLockedLeaf(idx uint64) (*FPage, *Node) {
	t.mu.Lock()
	leaf := t.lookupLeaf(idx)
	t.mu.Unlock()
	t.lockedHits.Add(1)
	if leaf == nil {
		return nil, nil
	}
	return &leaf.pages[idx&levelMask], leaf
}

// Insert materializes (if needed) and returns the fpage slot for page idx,
// along with its leaf. Updates are locked; all node fields are initialized
// before publication so concurrent lock-free readers always observe
// consistent nodes. Callers hold an epoch guard across the use of the
// returned slot, entered BEFORE Insert — the guard is what keeps a leaf
// detached-and-recycled by a racing RemoveLeaf from changing identity
// under the caller's claim check.
func (t *Tree) Insert(idx uint64) (*FPage, *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()

	if t.root.Load() == nil {
		if idx < fanout {
			leaf := t.newLeafLocked(0)
			t.root.Store(leaf)
			t.height.Store(0)
			return &leaf.pages[idx&levelMask], leaf
		}
		// Start with an interior skeleton tall enough for idx; the walk
		// below materializes the path (no spurious leaves).
		h := int32(1)
		for idx >= capacityForHeight(h) {
			h++
		}
		t.root.Store(&Node{level: h})
		t.height.Store(h)
	}

	// Grow the tree upward until it covers idx.
	for idx >= capacityForHeight(t.height.Load()) {
		h := t.height.Load()
		newRoot := &Node{level: h + 1}
		newRoot.children[0].Store(t.root.Load())
		t.root.Store(newRoot)
		t.height.Store(h + 1)
	}

	// Walk down, materializing the path.
	n := t.root.Load()
	for lvl := t.height.Load(); lvl > 0; lvl-- {
		slot := (idx >> (uint(lvl) * bitsPerLevel)) & levelMask
		child := n.children[slot].Load()
		if child == nil {
			if lvl == 1 {
				child = t.newLeafLocked(idx &^ uint64(levelMask))
			} else {
				child = &Node{level: lvl - 1}
			}
			n.children[slot].Store(child)
		}
		n = child
	}
	return &n.pages[idx&levelMask], n
}

// newLeafLocked produces a leaf — reusing a grace-period-expired one from
// the recycle pool when available — initializes its fpages, and pushes it
// on the FIFO head. The tree lock must be held.
func (t *Tree) newLeafLocked(base uint64) *Node {
	var leaf *Node
	t.poolMu.Lock()
	if n := len(t.pool); n > 0 {
		leaf = t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
	}
	t.poolMu.Unlock()
	if leaf != nil {
		// Fully re-initialize before republication: the epoch grace period
		// guarantees no reader still holds this node, so plain resets are
		// race-free, but every field a reader consults must be rebuilt —
		// a recycled leaf is a brand-new identity.
		t.recycles.Add(1)
		leaf.base = base
		leaf.detached.Store(false)
		leaf.dirty.Store(0)
		leaf.fifoNext.Store(nil)
		leaf.fifoPrev.Store(nil)
		for i := range leaf.pages {
			p := &leaf.pages[i]
			p.state.Store(slotEmpty)
			p.refs.Store(0)
			p.maps.Store(0)
			p.frame.Store(-1)
		}
	} else {
		leaf = &Node{level: 0, base: base}
		for i := range leaf.pages {
			leaf.pages[i].frame.Store(-1)
		}
	}
	// Push on FIFO head (newest first).
	old := t.fifoHead.Load()
	leaf.fifoNext.Store(old)
	if old != nil {
		old.fifoPrev.Store(leaf)
	} else {
		t.fifoTail.Store(leaf)
	}
	t.fifoHead.Store(leaf)
	leaf.onFIFO = true
	t.leaves++
	return leaf
}

// Leaves reports the number of live last-level nodes.
func (t *Tree) Leaves() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leaves
}

// OldestLeaves performs a lock-free traversal of the FIFO list from the
// tail (oldest allocations first) and returns up to max leaves. The paging
// algorithm uses this to pick reclamation victims without blocking
// readers. The caller must hold an epoch guard across BOTH the call and
// every use of the returned leaves — a leaf detached mid-scan must not be
// recycled into a different identity while the victim walk still holds it.
func (t *Tree) OldestLeaves(max int) []*Node {
	var out []*Node
	for n := t.fifoTail.Load(); n != nil && len(out) < max; n = n.fifoPrev.Load() {
		if !n.detached.Load() {
			out = append(out, n)
		}
	}
	return out
}

// RemoveLeaf detaches a fully-evicted leaf from the tree and the FIFO list,
// then retires it to the epoch domain; after a grace period it lands in the
// recycle pool for reuse by a later Insert. Concurrent lock-free readers
// may still reach the detached leaf until their guards exit; its empty
// fpages and the frame identifier check make such reads fail harmlessly.
//
// Readers that CLAIM a slot (TryBeginInit) are the dangerous case: a claim
// on a leaf detached an instant later would initialize a frame on an
// unreachable node, leaking it. The two sides run a store-then-verify
// (Dekker-style) protocol over sequentially consistent atomics — now
// layered on epochs, which add the guarantee that the leaf a claimant is
// racing on cannot be REUSED (base rewritten, slots reset) while the
// claimant's guard is live:
//
//   - RemoveLeaf publishes detached=true FIRST, then verifies every slot is
//     still Empty; any non-Empty slot rolls the detach back.
//   - Claimants, under an epoch guard, CAS Empty→Init FIRST, then check
//     leaf.Detached(); if set, they AbortInit and retry through a fresh
//     lookup.
//
// Whatever the interleaving, at least one side observes the other: a claim
// that survives implies the verify saw Init (detach rolled back); a
// completed detach implies every later claimant sees detached=true. The
// unlink stores below are all published before Retire, so a guard entered
// after the grace period cannot reach the retired leaf at all.
func (t *Tree) RemoveLeaf(leaf *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf.detached.Load() {
		return
	}

	leaf.detached.Store(true)
	for i := range leaf.pages {
		if !leaf.pages[i].Empty() {
			// A claimant won the race; keep the leaf.
			leaf.detached.Store(false)
			return
		}
	}

	// Unlink from FIFO.
	if leaf.onFIFO {
		prev, next := leaf.fifoPrev.Load(), leaf.fifoNext.Load()
		if prev != nil {
			prev.fifoNext.Store(next)
		} else {
			t.fifoHead.Store(next)
		}
		if next != nil {
			next.fifoPrev.Store(prev)
		} else {
			t.fifoTail.Store(prev)
		}
		leaf.onFIFO = false
		t.leaves--
	}

	// Unlink from the tree (parent slot -> nil). We re-walk from the
	// root; intermediate nodes are left in place (they are small and the
	// file cache is typically reused soon — matching the prototype's
	// minimal-deallocation design).
	h := t.height.Load()
	if h == 0 {
		if t.root.Load() == leaf {
			t.root.Store(nil)
		}
	} else {
		n := t.root.Load()
		for lvl := h; n != nil && lvl > 1; lvl-- {
			slot := (leaf.base >> (uint(lvl) * bitsPerLevel)) & levelMask
			n = n.children[slot].Load()
		}
		if n != nil {
			slot := (leaf.base >> bitsPerLevel) & levelMask
			if n.children[slot].Load() == leaf {
				n.children[slot].Store(nil)
			}
		}
	}

	// Every pointer to the leaf is now unpublished; retire it. The pool
	// push runs only after the grace period (lock order: mu → dom.mu →
	// poolMu — the callback never touches mu).
	t.dom.Retire(func() {
		t.poolMu.Lock()
		t.pool = append(t.pool, leaf)
		t.poolMu.Unlock()
	})
}

// ForEachReadyPage calls fn for every Ready slot in the tree, oldest leaf
// first (best-effort, lock-free). Its callers are the walks that must see
// every resident page: gfsync (syncFile), the checkpoint capture, gftruncate
// and the cache drop of unlink, invalidation and restart. The walk runs
// under its own epoch guard, which also covers fn — a leaf detached mid-walk
// keeps its identity until fn returns.
func (t *Tree) ForEachReadyPage(fn func(idx uint64, p *FPage) bool) {
	g := t.Pin()
	defer g.Exit()
	for n := t.fifoTail.Load(); n != nil; n = n.fifoPrev.Load() {
		if n.detached.Load() {
			continue
		}
		for i := range n.pages {
			p := &n.pages[i]
			if p.Ready() {
				if !fn(n.base+uint64(i), p) {
					return
				}
			}
		}
	}
}

// HintDirty sets page idx's bit of its leaf's dirty mask, or clears it. The
// caller keeps the slot non-Empty (a reference, an Init claim or an Evicting
// one), so the leaf exists and cannot be detached under it. The mask is a
// hint for ForEachDirtyPage: the caller keeps it in step with the frame's
// flag.
func (t *Tree) HintDirty(idx uint64, dirty bool) {
	g := t.Pin()
	defer g.Exit()
	leaf := t.lookupLeaf(idx)
	bit := uint64(1) << (idx & levelMask)
	for {
		old := leaf.dirty.Load()
		m := old &^ bit
		if dirty {
			m = old | bit
		}
		if m == old || leaf.dirty.CompareAndSwap(old, m) {
			return
		}
	}
}

// ForEachDirtyPage is ForEachReadyPage over the slots whose dirty hint is set
// (HintDirty): the same leaves in the same order, and within a leaf the Ready
// slots with their bit set, lowest first. After each call of fn it re-reads
// the mask above the slot just visited, so a bit that moves mid-walk is seen
// as a walk of every slot would see the flag beside it.
func (t *Tree) ForEachDirtyPage(fn func(idx uint64, p *FPage) bool) {
	g := t.Pin()
	defer g.Exit()
	for n := t.fifoTail.Load(); n != nil; n = n.fifoPrev.Load() {
		if n.detached.Load() {
			continue
		}
		for m := n.dirty.Load(); m != 0; {
			i := bits.TrailingZeros64(m)
			if p := &n.pages[i]; p.Ready() && !fn(n.base+uint64(i), p) {
				return
			}
			m = n.dirty.Load() & (^uint64(0) << (i + 1))
		}
	}
}
