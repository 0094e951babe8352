package hostfs

import (
	"container/list"
	"sync"

	"gpufs/internal/disk"
	"gpufs/internal/simtime"
)

// cacheUnit is the granularity at which CPU page-cache residency is tracked.
// Linux tracks 4 KB pages; we coarsen to 64 KB to bound metadata while
// preserving the cached-vs-disk distinction that drives the benchmarks.
const cacheUnit int64 = 64 << 10

// readaheadUnits is the OS readahead window (in cache units) pulled in on a
// read miss. Without readahead, interleaved sequential streams from many
// GPU threadblocks would degenerate into one disk seek per request —
// which Linux's readahead (128 KB-2 MB windows) prevents.
const readaheadUnits = 16 // 1 MB

// pageCache is the residency/timing model of the host OS buffer cache. It
// holds no data (inodes own the real bytes); it tracks which (inode, unit)
// ranges are in RAM, evicts LRU units under pressure, and charges disk time
// for misses and dirty write-back.
type pageCache struct {
	capacity int64
	d        *disk.Disk

	// reserved is RAM pinned by applications (cudaHostMalloc buffers),
	// which competes with the page cache — the effect that slows the
	// CUDA double-buffering baselines in the disk-bound regime of the
	// paper's Figure 8.
	reserved int64

	mu    sync.Mutex
	lru   *list.List // of *cacheEntry, front = most recent
	index map[unitKey]*list.Element
	bytes int64
	// units counts each inode's resident units, so that dropping or
	// syncing one inode skips the LRU walk when it has none (creating a
	// file truncates it) and stops the walk once it has seen them all.
	units map[int64]int64

	hits, misses int64
}

type unitKey struct {
	ino  int64
	unit int64
}

type cacheEntry struct {
	key   unitKey
	dirty bool
}

func newPageCache(capacity int64, d *disk.Disk) *pageCache {
	if capacity < cacheUnit {
		capacity = cacheUnit
	}
	return &pageCache{
		capacity: capacity,
		d:        d,
		lru:      list.New(),
		index:    make(map[unitKey]*list.Element),
		units:    make(map[int64]int64),
	}
}

// insertLocked makes key resident at the front of the LRU. pc.mu held.
func (pc *pageCache) insertLocked(key unitKey, dirty bool) {
	pc.index[key] = pc.lru.PushFront(&cacheEntry{key: key, dirty: dirty})
	pc.units[key.ino]++
	pc.bytes += cacheUnit
}

// removeLocked drops the resident unit el. pc.mu held.
func (pc *pageCache) removeLocked(el *list.Element) {
	key := el.Value.(*cacheEntry).key
	pc.lru.Remove(el)
	delete(pc.index, key)
	if pc.units[key.ino]--; pc.units[key.ino] == 0 {
		delete(pc.units, key.ino)
	}
	pc.bytes -= cacheUnit
}

// charge makes the byte range [off, off+n) of inode ino resident and returns
// the virtual completion time. Read misses cost disk reads; write "misses"
// cost nothing beyond residency (the data is new). Dirty units displaced by
// the insertions are written back to disk.
func (pc *pageCache) charge(now simtime.Time, ino, off, n, fileSize int64, write bool) simtime.Time {
	if n <= 0 {
		return now
	}
	first := off / cacheUnit
	last := (off + n - 1) / cacheUnit
	// Readahead never runs past end of file.
	eofUnit := (fileSize + cacheUnit - 1) / cacheUnit
	if eofUnit <= last {
		eofUnit = last + 1
	}

	end := now
	pc.mu.Lock()
	for u := first; u <= last; u++ {
		key := unitKey{ino, u}
		if el, ok := pc.index[key]; ok {
			pc.hits++
			pc.lru.MoveToFront(el)
			if write {
				el.Value.(*cacheEntry).dirty = true
			}
			continue
		}
		pc.misses++
		if write {
			// Write miss: the data is new; no disk read needed.
			pc.insertLocked(key, true)
			continue
		}
		// Read miss: bring in a readahead window in one contiguous
		// disk read, so interleaved sequential streams pay one seek
		// per window rather than one per unit.
		wEnd := u + readaheadUnits
		if demand := last + 1; demand > wEnd {
			wEnd = demand
		}
		if wEnd > eofUnit {
			wEnd = eofUnit
		}
		var bytes int64
		for w := u; w < wEnd; w++ {
			wkey := unitKey{ino, w}
			if _, ok := pc.index[wkey]; ok {
				break // already resident: keep the read contiguous
			}
			pc.insertLocked(wkey, false)
			bytes += cacheUnit
		}
		if t := pc.d.Read(now, ino, u*cacheUnit, bytes); t > end {
			end = t
		}
		u += bytes/cacheUnit - 1
	}

	// Evict under pressure; dirty victims are written back.
	for pc.bytes > pc.capacity-pc.reserved {
		el := pc.lru.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*cacheEntry)
		if ent.dirty {
			t := pc.d.Write(now, ent.key.ino, ent.key.unit*cacheUnit, cacheUnit)
			if t > end {
				end = t
			}
		}
		pc.removeLocked(el)
	}
	pc.mu.Unlock()
	return end
}

// sync writes back all dirty units of ino and returns the completion time.
func (pc *pageCache) sync(now simtime.Time, ino int64) simtime.Time {
	end := now
	pc.mu.Lock()
	left := pc.units[ino]
	for el := pc.lru.Front(); el != nil && left > 0; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.key.ino != ino {
			continue
		}
		left--
		if ent.dirty {
			t := pc.d.Write(now, ino, ent.key.unit*cacheUnit, cacheUnit)
			if t > end {
				end = t
			}
			ent.dirty = false
		}
	}
	pc.mu.Unlock()
	return end
}

// forget drops all units of ino without write-back (unlink of an inode with
// no remaining links).
func (pc *pageCache) forget(ino int64) { pc.truncate(ino, 0) }

// truncate drops units entirely beyond the new size.
func (pc *pageCache) truncate(ino, size int64) {
	keep := (size + cacheUnit - 1) / cacheUnit
	pc.mu.Lock()
	left := pc.units[ino]
	var next *list.Element
	for el := pc.lru.Front(); el != nil && left > 0; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.ino != ino {
			continue
		}
		left--
		if ent.key.unit >= keep {
			pc.removeLocked(el)
		}
	}
	pc.mu.Unlock()
}

// drop empties the cache without write-back (drop_caches semantics; dirty
// data is not lost because inodes own the real bytes — only timing state is
// discarded).
func (pc *pageCache) drop() {
	pc.mu.Lock()
	pc.lru.Init()
	pc.index = make(map[unitKey]*list.Element)
	pc.units = make(map[int64]int64)
	pc.bytes = 0
	pc.mu.Unlock()
}

// reserve adjusts the pinned-memory reservation by delta bytes.
func (pc *pageCache) reserve(delta int64) {
	pc.mu.Lock()
	pc.reserved += delta
	if pc.reserved < 0 {
		pc.reserved = 0
	}
	if max := pc.capacity - cacheUnit; pc.reserved > max {
		pc.reserved = max
	}
	pc.mu.Unlock()
}

// resident reports the number of resident bytes.
func (pc *pageCache) resident() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.bytes
}

// stats reports cumulative hit/miss unit counts.
func (pc *pageCache) stats() (hits, misses int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}
