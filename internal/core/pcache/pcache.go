// Package pcache implements the physical side of the GPU buffer cache
// (§4.2): the raw data array of pre-allocated pages in device memory, and
// the array of pframe structures holding per-page metadata. The i'th pframe
// describes the i'th page of the raw data array, so translating between a
// page pointer and its metadata is pure index arithmetic — as needed by
// gmunmap and gmsync.
//
// Unlike Linux pframes, GPUfs pframes also carry file-related identity (the
// owning radix tree's unique id and the page's file offset) because every
// GPUfs page is backed by a host file; this identity is what lock-free
// radix-tree readers validate after reaching a frame through a possibly
// stale path.
package pcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpufs/internal/memsys"
)

// Speculation states for Frame.Spec.
const (
	SpecNone    int32 = iota // demand-faulted (or free) frame
	SpecPending              // prefetched, no consumer has claimed it yet
	SpecUsed                 // prefetched and consumed by a demand access
	SpecReplay               // prefetched on a recorded profile's word, unclaimed
)

// Frame is a pframe: metadata for one buffer-cache page.
type Frame struct {
	// Index is the frame's position in the raw data array.
	Index int32

	// Data is the frame's page in the raw data array.
	Data []byte

	// FileID is the unique radix-tree id of the owning file cache, used
	// for lock-free traversal validation; 0 means the frame is free.
	FileID atomic.Uint64
	// Offset is the page-aligned file offset the frame caches.
	Offset atomic.Int64
	// ValidBytes is the number of meaningful bytes in the page (a page
	// covering EOF is partially valid).
	ValidBytes atomic.Int64
	// Dirty reports whether the page holds local writes not yet
	// propagated to the host.
	Dirty atomic.Bool
	// WriteOnce marks pages of O_GWRONCE files, whose pristine copy is
	// implicitly all zeros (diff-against-zeros write-back, §3.1).
	WriteOnce atomic.Bool
	// ReadyAt is the virtual instant an asynchronous fill's transfer
	// completes, which every consumer of the page waits for; 0 for a page
	// faulted synchronously — that transfer was charged to the faulting
	// block, and a virtually-earlier consumer would have faulted it itself
	// (the same virtual-order idealization the block scheduler uses).
	ReadyAt atomic.Int64
	// CleanAt is the write-side ReadyAt: the virtual instant the page's
	// latest write-back reaches the host, and WroteAt the instant that
	// write was issued; both are moved under WriteBack by the actor that
	// issued it and are 0 for a page never written back. The issuer does not
	// wait for its writes one by one, so a clear Dirty flag alone does not
	// say the host has the bytes: whoever relies on that at a time between
	// the two — a gfsync that finds the page clean, the evictor that hands
	// the frame (the DMA's source) to a new tenant — waits for CleanAt.
	CleanAt atomic.Int64
	WroteAt atomic.Int64
	// Spec tracks speculative-read accounting separately from ReadyAt
	// (which must survive consumption so every later consumer still
	// waits): SpecNone for demand-faulted frames, SpecPending from
	// prefetch issue until the first consumer claims the transfer as a
	// hit, SpecUsed after. A frame reclaimed while still SpecPending was
	// wasted speculation.
	Spec atomic.Int32

	// mu guards pristine and serializes data-plane access to the page
	// (writers versus the write-back differ), so concurrent gwrite and
	// gfsync never race on the same bytes.
	mu       sync.Mutex
	pristine []byte

	// WriteBack serializes the write-backs of this page: each holds it from
	// clearing Dirty until its last RPC returns, or an older snapshot could
	// land on the host after a newer one and stay there under a clean page.
	// It is separate from mu, which the data plane takes per copy and must
	// not hold across an RPC.
	WriteBack sync.Mutex
}

// Lock serializes data access to the frame's page.
func (f *Frame) Lock() { f.mu.Lock() }

// Unlock releases Lock.
func (f *Frame) Unlock() { f.mu.Unlock() }

// Snapshot copies the page's valid content and its pristine copy (nil if
// none) consistently, for race-free diffing during write-back. Both are
// appended to *buf, grown if too small, so a walk over many pages copies
// through one buffer; the results alias it.
func (f *Frame) Snapshot(buf *[]byte) (data, pristine []byte, valid int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	valid = f.ValidBytes.Load()
	from := int64(len(*buf))
	*buf = append(*buf, f.Data[:valid]...)
	if len(f.pristine) > 0 {
		*buf = append(*buf, f.pristine...)
		pristine = (*buf)[from+valid:]
	}
	return (*buf)[from : from+valid], pristine, valid
}

// Matches validates the frame's identity: owning tree id and file offset.
// A lock-free reader calls this after locating a frame to reject frames
// that were reclaimed and reused behind its back.
func (f *Frame) Matches(fileID uint64, offset int64) bool {
	return f.FileID.Load() == fileID && f.Offset.Load() == offset
}

// SetPristine stores a pristine copy of the page's initial content for
// later diffing. The slice is copied.
func (f *Frame) SetPristine(data []byte) {
	f.mu.Lock()
	f.pristine = append(f.pristine[:0], data...)
	f.mu.Unlock()
}

// Pristine returns the pristine copy, or nil.
func (f *Frame) Pristine() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pristine
}

// ClearPristine releases the pristine copy.
func (f *Frame) ClearPristine() {
	f.mu.Lock()
	f.pristine = nil
	f.mu.Unlock()
}

// Cache is the global frame pool of one GPU: the raw data array plus the
// pframe array. For efficiency, pages are pre-allocated in one large
// contiguous device-memory allocation.
//
// The free list is SHARDED (ISSUE 8): frame i's home shard is i mod
// nshards, allocators are steered to a shard by their lane (MP) so demand
// paging, read-ahead, and the cleaner stop serializing on one freelist
// mutex, and an empty shard steals from its neighbors before reporting
// exhaustion — so sharding changes contention, never capacity.
type Cache struct {
	pageSize int64
	raw      *memsys.Block
	frames   []Frame

	shards []frameShard
	// free is the frames on the shards' lists, summed: moved with each pop
	// and push so that FreeFrames, asked per fault, takes no lock.
	free atomic.Int64

	allocs    atomic.Int64
	reclaimed atomic.Int64
	steals    atomic.Int64
}

// frameShard is one free-list shard: a LIFO of frame indexes under its own
// mutex.
type frameShard struct {
	mu   sync.Mutex
	free []int32
}

// NewSharded carves a cache of totalBytes (rounded down to whole pages) out
// of the given device-memory arena, its free list split across nshards
// shards (values < 1 select 1). Frames are distributed round-robin by
// index, and each shard's list is built in reverse so its lowest frame
// index is handed out first.
func NewSharded(mem *memsys.Arena, totalBytes, pageSize int64, nshards int) (*Cache, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pcache: invalid page size %d", pageSize)
	}
	n := totalBytes / pageSize
	if n < 1 {
		return nil, fmt.Errorf("pcache: cache of %d bytes holds no %d-byte pages", totalBytes, pageSize)
	}
	if nshards < 1 {
		nshards = 1
	}
	if int64(nshards) > n {
		nshards = int(n)
	}
	raw, err := mem.Alloc(n*pageSize, pageSize)
	if err != nil {
		return nil, fmt.Errorf("pcache: allocating raw data array: %w", err)
	}
	c := &Cache{
		pageSize: pageSize,
		raw:      raw,
		frames:   make([]Frame, n),
		shards:   make([]frameShard, nshards),
	}
	for i := int64(0); i < n; i++ {
		f := &c.frames[i]
		f.Index = int32(i)
		f.Data = raw.Data[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
		f.Offset.Store(-1)
	}
	// Each shard's free list in reverse so its lowest frame index is on
	// top (with one shard: frame 0 is handed out first).
	for i := int32(n) - 1; i >= 0; i-- {
		s := &c.shards[int(i)%nshards]
		s.free = append(s.free, i)
	}
	c.free.Store(n)
	return c, nil
}

// Close releases the raw data array back to the device arena.
func (c *Cache) Close() error { return c.raw.Free() }

// PageSize reports the cache's page size.
func (c *Cache) PageSize() int64 { return c.pageSize }

// NumFrames reports the total frame count.
func (c *Cache) NumFrames() int { return len(c.frames) }

// FreeFrames reports how many frames are currently unallocated, summed
// across shards.
func (c *Cache) FreeFrames() int { return int(c.free.Load()) }

// Shards reports the number of free-list shards.
func (c *Cache) Shards() int { return len(c.shards) }

// Steals reports how many allocations were satisfied by stealing from a
// non-home shard (contention diagnostics).
func (c *Cache) Steals() int64 { return c.steals.Load() }

// Allocs reports the cumulative number of frame allocations.
func (c *Cache) Allocs() int64 { return c.allocs.Load() }

// Reclaimed reports the cumulative number of frames reclaimed by paging
// (Table 2's "Pages reclaimed" column).
func (c *Cache) Reclaimed() int64 { return c.reclaimed.Load() }

// Frame returns the pframe at index i.
func (c *Cache) Frame(i int32) *Frame {
	return &c.frames[i]
}

// FrameForData translates a pointer into the raw data array (expressed as
// the page's first-byte offset within the raw array) back to its pframe, as
// gmunmap/gmsync must do. Returns nil if off is not page-aligned or out of
// range.
func (c *Cache) FrameForData(off int64) *Frame {
	if off < 0 || off%c.pageSize != 0 {
		return nil
	}
	i := off / c.pageSize
	if i >= int64(len(c.frames)) {
		return nil
	}
	return &c.frames[i]
}

// RawOffset reports the offset of frame i's page within the raw data array.
func (c *Cache) RawOffset(i int32) int64 { return int64(i) * c.pageSize }

// TryAllocOn pops a free frame and stamps it with the owner's identity,
// steered by a lane hint: the allocation is served from the shard the lane
// hashes to, falling back to stealing from the other shards in ring order
// when the home shard is empty. It returns nil only when EVERY shard is
// empty — a pinned-up home shard alone never produces a spurious
// cache-full — and the caller must then run the paging algorithm (eviction
// is performed by the calling thread; GPUfs has no daemon threads, §4.2).
func (c *Cache) TryAllocOn(lane int, fileID uint64, offset int64) *Frame {
	n := len(c.shards)
	home := c.homeShard(lane)
	var idx int32 = -1
	for d := 0; d < n; d++ {
		s := &c.shards[(home+d)%n]
		s.mu.Lock()
		if k := len(s.free); k > 0 {
			idx = s.free[k-1]
			s.free = s.free[:k-1]
			c.free.Add(-1)
			s.mu.Unlock()
			if d > 0 {
				c.steals.Add(1)
			}
			break
		}
		s.mu.Unlock()
	}
	if idx < 0 {
		return nil
	}

	f := &c.frames[idx]
	f.reset(fileID, offset)
	c.allocs.Add(1)
	return f
}

// Unalloc is the exact inverse of the TryAllocOn(lane, …) that returned f, for
// a frame nobody has used since — its page's bytes aside: the identity
// TryAllocOn stamped is taken off (every other field is still as its reset
// left it), the frame goes back on top of the list it was popped from (its
// home shard — a shard only ever lists its own frames) and the allocation,
// with the steal it may have been, is uncounted. Frames taken one after
// another and handed back newest first leave the pool as if none had been
// taken.
func (c *Cache) Unalloc(lane int, f *Frame) {
	if int(f.Index)%len(c.shards) != c.homeShard(lane) {
		c.steals.Add(-1)
	}
	c.allocs.Add(-1)
	f.FileID.Store(0)
	f.Offset.Store(-1)
	c.push(f)
}

// homeShard is the shard a lane's allocations are served from first.
func (c *Cache) homeShard(lane int) int {
	if lane < 0 {
		lane = -lane
	}
	return lane % len(c.shards)
}

// reset hands the frame to a new tenant — or, with (0, -1), to nobody, so any
// stale lock-free reader fails validation — clearing everything the previous
// one left on it.
func (f *Frame) reset(fileID uint64, offset int64) {
	f.FileID.Store(fileID)
	f.Offset.Store(offset)
	f.ValidBytes.Store(0)
	f.Dirty.Store(false)
	f.WriteOnce.Store(false)
	f.ClearPristine()
	f.resetTimes()
}

// resetTimes is the part of reset that ResetTimes applies to frames in use.
func (f *Frame) resetTimes() {
	f.ReadyAt.Store(0)
	f.CleanAt.Store(0)
	f.WroteAt.Store(0)
	f.Spec.Store(SpecNone)
}

// ResetTimes clears every frame's transfer-completion timestamps; the
// benchmark harness calls it when rewinding virtual time, since a ReadyAt or
// CleanAt from before the rewind would otherwise throw consumers into the old
// timeline.
func (c *Cache) ResetTimes() {
	for i := range c.frames {
		c.frames[i].resetTimes()
	}
}

// Release strips a frame of its tenant and returns it to its HOME shard's free
// list (index mod shard count — keeping each shard's frame population stable
// under churn). reclaimedByPaging distinguishes eviction-driven releases
// (counted in Reclaimed) from releases on unlink or truncate.
func (c *Cache) Release(f *Frame, reclaimedByPaging bool) {
	if reclaimedByPaging {
		c.reclaimed.Add(1)
	}
	f.reset(0, -1)
	c.push(f)
}

// push puts f, stripped of its tenant, on top of its home shard's list.
func (c *Cache) push(f *Frame) {
	s := &c.shards[int(f.Index)%len(c.shards)]
	s.mu.Lock()
	s.free = append(s.free, f.Index)
	c.free.Add(1)
	s.mu.Unlock()
}
