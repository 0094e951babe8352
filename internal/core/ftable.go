package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gpufs/internal/ckpt"
	"gpufs/internal/core/radix"
	"gpufs/internal/simtime"
)

// The file-table lifecycle (DESIGN.md §17 has the state table): the open file
// table, one entry per file shared by every block that opened it (§3.2), and
// the closed file table, which keeps a file's cache and CPU descriptor after
// the last gclose for later blocks and kernels to reuse (§4.1). No other file
// of the package touches either, the truncated-once set, or a cache's retained
// descriptor and flags (TestStructureCensus holds it). Every move of an entry
// is one method here, under the table lock, panicking if its precondition
// fails; a cache leaving the closed table is handed to the caller as a
// retiree.

// openMode is what a gopen's flags ask of the file.
type openMode struct {
	writeOnce bool
	writeShrd bool
	noSync    bool
	writable  bool
	readable  bool
}

// parseOpenFlags derives what a gopen asks of the file from its flags.
func parseOpenFlags(flags int) (openMode, error) {
	m := openMode{
		writeOnce: flags&O_GWRONCE != 0,
		writeShrd: flags&O_GWRSHARED != 0,
		noSync:    flags&O_NOSYNC != 0,
	}
	if m.writeOnce && m.writeShrd {
		return m, fmt.Errorf("%w: O_GWRONCE with O_GWRSHARED", ErrBadFlags)
	}
	acc := flags & 0x3
	if m.writeOnce {
		acc = O_WRONLY
	}
	m.writable = acc == O_WRONLY || acc == O_RDWR
	m.readable = acc == O_RDONLY || acc == O_RDWR
	if (m.writeOnce || m.writeShrd || m.noSync) && !m.writable {
		return m, fmt.Errorf("%w: GPUfs write flags require a writable mode", ErrBadFlags)
	}
	return m, nil
}

// file is an entry in the open file table: 96 bytes, and its detector slots
// only once a stream of its blocks reads ahead.
type file struct {
	fc *fileCache

	path  string
	flags int
	openMode
	unlinked bool // gunlink'd while open; discard cache at final close

	hostFd int64
	refs   int // threadblock reference count

	// opening coordination: concurrent gopens of the same file coalesce
	// into one open; waiters block on ready, which closes once the entry is
	// admitted (fc set, the descriptor good) or has left the table with err.
	ready    chan struct{}
	admitted bool
	err      error

	// ra holds the adaptive read-ahead detector slots: threadblocks hash by
	// index, so each slot sees one (or a few) blocks' access stream
	// rather than the chaotic interleaving of all of them — the reason
	// the paper dismissed per-file stride detection (§3.3). The array is
	// made at the file's first stream write and a slot at its stream's:
	// an open that never reads ahead has neither.
	ra atomic.Pointer[raSlots]
}

// raSlots is a file's array of detector slots.
type raSlots [raStreams]atomic.Pointer[raStream]

// stream returns detector slot i of f, or nil if no stream has used it.
func (f *file) stream(i int) *raStream {
	if s := f.ra.Load(); s != nil {
		return s[i&(raStreams-1)].Load()
	}
	return nil
}

// streamFor returns detector slot i of f, made on first use: blocks that
// race to make the file's slot array or one slot race one CompareAndSwap
// each and share its winner.
func (f *file) streamFor(i int) *raStream {
	if f.ra.Load() == nil {
		f.ra.CompareAndSwap(nil, new(raSlots))
	}
	p := &f.ra.Load()[i&(raStreams-1)]
	if p.Load() == nil {
		p.CompareAndSwap(nil, new(raStream))
	}
	return p.Load()
}

// fileCache is a file's GPU-resident cache state. It survives gclose in the
// closed file table (keyed by host inode) so that threadblocks scheduled
// later — or subsequent kernels of the same process — reuse the cached
// pages (§4.1, §5.1.3).
type fileCache struct {
	tree    *radix.Tree
	lockRes *simtime.Resource // serializes locked traversals in virtual time

	ino  int64
	path string

	// gen is the host generation the cache contents correspond to,
	// refreshed after this GPU propagates writes.
	gen atomic.Int64

	// size is the file size as seen by gfstat: captured at the first
	// gopen and extended by local writes.
	size atomic.Int64

	// frames counts resident pages, so the eviction policy can skip
	// empty caches cheaply.
	frames atomic.Int64

	// dirty counts resident pages with local writes the host lacks, so a
	// cleaner pass can skip a file that has none (see setDirty).
	dirty atomic.Int64

	// clean counts resident pages the host has — frames less dirty — shifted
	// left one bit, with bit 0 set while the cache is retired. One word, so a
	// page moving while the cache retires or leaves the closed table lands in
	// the table's total (closedClean) exactly when it lands here under the bit:
	// page.go moves the count (addClean), the table the bit (setRetired).
	clean atomic.Int64

	// The closed table's fields, guarded by its lock. keepFd is the host
	// descriptor retained after the last gclose ("the CPU file descriptor
	// used for data requests", §4.1: keeping it makes a reopen free of CPU
	// communication), non-zero exactly while the cache is retired; lastFlags
	// the retired open's flags, which a fast reopen must match; retiredAs the
	// pathname it retired under, which an open through another link need not
	// share with path; older and newer its neighbours in retirement order.
	keepFd       int64
	lastFlags    int
	retiredAs    string
	older, newer *fileCache

	// prefetchUsed and prefetchWasted count this file's speculative pages
	// consumed by a demand access versus reclaimed unconsumed; the
	// adaptive read-ahead window uses the ratio as its feedback signal.
	prefetchUsed   atomic.Int64
	prefetchWasted atomic.Int64

	// profile is the read-ahead profile the last final gclose recorded
	// (history.go), replayed by the next open that reuses this cache. Atomic:
	// a closer records it after release has retired the cache, where a
	// concurrent opener may already be reading it.
	profile atomic.Pointer[[]ckpt.StrideImage]

	// wbErr is the sticky asynchronous write-back error (POSIX errseq_t
	// semantics): when eviction-driven write-back fails, the error is
	// recorded here and surfaced exactly once — at the next gfsync, or at
	// the final gclose if no sync intervenes.
	wbMu  sync.Mutex
	wbErr error
}

// retiree is a cache that has left the closed table and the descriptor it had
// retained; whoever holds one owns both. The zero retiree is none.
type retiree struct {
	fc     *fileCache
	hostFd int64
}

// victim describes a reclamation candidate file.
type victim struct {
	fc     *fileCache
	hostFd int64
	class  int // 0 closed, 1 open read-only, 2 open writable
}

type ftable struct {
	mu sync.Mutex

	// The open table: fd -> entry (nil: free slot), indexed by pathname.
	fds    []*file
	byPath map[string]int

	// The closed table: a ring in retirement order through its sentinel
	// (ring.newer is the oldest), indexed by host inode and by pathname.
	ring         fileCache
	closed       map[int64]*fileCache
	closedByPath map[string]*fileCache
	// closedClean is the clean pages the retired caches hold — what a
	// confirmed stream's speculation may reclaim — kept without the lock.
	closedClean atomic.Int64
	// rescan is whether the latest reuse of a retired cache found it holding
	// no pages: a reuse distance longer than the cache, a cyclic scan's mark.
	// It turns cleanVictims' walk around.
	rescan atomic.Bool

	// truncated records paths already truncated by an O_TRUNC open, so a
	// re-open by a late-scheduled threadblock (after the reference count
	// transiently hit zero, §3.2) does not destroy earlier blocks'
	// output by truncating again.
	truncated map[string]bool
}

func newFTable() *ftable {
	t := &ftable{
		byPath:       make(map[string]int),
		closed:       make(map[int64]*fileCache),
		closedByPath: make(map[string]*fileCache),
		truncated:    make(map[string]bool),
	}
	t.ring.older, t.ring.newer = &t.ring, &t.ring
	return t
}

// fileLocked returns the open file for fd. A pending entry's descriptor was
// handed to nobody yet: to every caller it is as bad as a free slot.
func (t *ftable) fileLocked(fd int) (*file, error) {
	if fd < 0 || fd >= len(t.fds) || t.fds[fd] == nil || !t.fds[fd].admitted {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return t.fds[fd], nil
}

// lookup returns the open file for fd.
func (t *ftable) lookup(fd int) (*file, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fileLocked(fd)
}

// enter is the first step of every open. If path is in the open table the
// caller joins that entry (f nil): it waits for the open in flight, then holds
// a reference on the shared descriptor (§3.2) or shares that open's failure.
// Otherwise it is the opener of a new pending entry f, to complete and admit,
// or fail, and cand is the fast-reopen candidate: the cache still retired for
// path under the same flags. An open-ahead leaves a path either table knows.
func (t *ftable) enter(path string, flags int, ahead bool) (int, *file, *fileCache, error) {
	m, err := parseOpenFlags(flags)
	if err != nil {
		return -1, nil, nil, err
	}
	for {
		t.mu.Lock()
		fd, open := t.byPath[path]
		cand := t.closedByPath[path]
		if ahead && (open || cand != nil) {
			t.mu.Unlock()
			return -1, nil, nil, nil
		}
		if !open {
			f := &file{path: path, flags: flags, openMode: m, refs: 1, ready: make(chan struct{})}
			if fd = slices.Index(t.fds, nil); fd < 0 {
				fd, t.fds = len(t.fds), append(t.fds, nil)
			}
			t.fds[fd], t.byPath[path] = f, fd
			if cand != nil && cand.lastFlags != flags {
				cand = nil
			}
			t.mu.Unlock()
			return fd, f, cand, nil
		}
		cur := t.fds[fd]
		t.mu.Unlock()
		<-cur.ready // coalesce with the in-flight open
		t.mu.Lock()
		switch now, _ := t.fileLocked(fd); {
		case cur.err != nil:
			fd, err = -1, cur.err
		case now != cur:
			// Retired while we waited, its slot perhaps reused by an open
			// we never waited on: start over against the current table.
			t.mu.Unlock()
			continue
		case cur.flags != flags:
			fd, err = -1, fmt.Errorf("%w: %q open with flags %#x, requested %#x",
				ErrFlagConflict, path, cur.flags, flags)
		default:
			cur.refs++
		}
		t.mu.Unlock()
		return fd, nil, nil, err
	}
}

// pendingLocked checks that f is the pending entry at fd, with or without a cache.
func (t *ftable) pendingLocked(fd int, f *file, completed bool) {
	if fd < 0 || fd >= len(t.fds) || t.fds[fd] != f || t.byPath[f.path] != fd ||
		f.admitted || f.err != nil || (f.fc != nil) != completed {
		panic(fmt.Sprintf("gpufs: open of %q at descriptor %d is not pending (completed: %v)", f.path, fd, completed))
	}
}

// complete installs a pending open's cache and host descriptor; waiters stay
// blocked until admit, so the opener can still prepare the entry unobserved.
func (t *ftable) complete(fd int, f *file, fc *fileCache, hostFd int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendingLocked(fd, f, false)
	if fc == nil || fc.keepFd != 0 || hostFd == 0 {
		panic(fmt.Sprintf("gpufs: completing the open of %q without a cache of its own and a descriptor", f.path))
	}
	f.fc, f.hostFd = fc, hostFd
}

// admit lets the waiters of a completed open in.
func (t *ftable) admit(fd int, f *file) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendingLocked(fd, f, true)
	f.admitted = true
	close(f.ready)
}

// fail retracts a pending open; its waiters share err.
func (t *ftable) fail(fd int, f *file, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendingLocked(fd, f, false)
	t.fds[fd] = nil
	delete(t.byPath, f.path)
	f.err = err
	close(f.ready)
}

// release drops one reference on fd. At the last one the entry leaves the open
// table and its cache retires, the newest retirement, with the host descriptor
// and flags. discard is what that leaves with nobody: what the closed table
// held under the same inode or pathname, and a transient file's own cache.
func (t *ftable) release(fd int) (f *file, last bool, discard []retiree, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err = t.fileLocked(fd)
	if err != nil {
		return nil, false, nil, err
	}
	f.refs--
	if f.refs > 0 {
		return f, false, nil, nil
	}
	t.fds[fd] = nil
	delete(t.byPath, f.path)
	fc := f.fc
	for _, old := range []*fileCache{t.closed[fc.ino], t.closedByPath[f.path]} {
		if old != nil && old.keepFd != 0 { // both may name one cache
			discard = append(discard, t.removeLocked(old))
		}
	}
	if f.noSync || f.unlinked {
		return f, true, append(discard, retiree{fc: fc, hostFd: f.hostFd}), nil
	}
	if fc.keepFd != 0 || t.closed[fc.ino] != nil || t.closedByPath[f.path] != nil {
		panic(fmt.Sprintf("gpufs: retiring %q (inode %d) over a closed-table entry", f.path, fc.ino))
	}
	fc.keepFd, fc.lastFlags, fc.retiredAs = f.hostFd, f.flags, f.path
	fc.older, fc.newer = t.ring.older, &t.ring
	fc.older.newer, t.ring.older = fc, fc
	t.closed[fc.ino] = fc
	t.closedByPath[f.path] = fc
	t.setRetired(fc, true)
	return f, true, discard, nil
}

// setRetired moves fc's retired bit, and its clean pages into or out of the
// closed table's total with it. A CAS, not a lock: pages of a retired cache
// are evicted concurrently, and each one is counted in the total exactly when
// its addClean saw the bit.
func (t *ftable) setRetired(fc *fileCache, retired bool) {
	for {
		old := fc.clean.Load()
		if (old&1 != 0) == retired {
			panic(fmt.Sprintf("gpufs: %q already has retired=%v", fc.path, retired))
		}
		if fc.clean.CompareAndSwap(old, old^1) {
			if retired {
				t.closedClean.Add(old >> 1)
			} else {
				t.closedClean.Add(-(old >> 1))
			}
			return
		}
	}
}

// addClean moves fc's count of clean resident pages by d, and the closed
// table's total with it while fc is retired. page.go calls it wherever a frame
// or a dirty flag moves.
func (t *ftable) addClean(fc *fileCache, d int64) {
	if fc.clean.Add(d<<1)&1 != 0 {
		t.closedClean.Add(d)
	}
}

// closedCleanPages reports how many clean pages the retired caches hold: O(1)
// and allocation-free, for the speculation planner's budget. It can lag a page moving
// right now, never drift.
func (t *ftable) closedCleanPages() int64 { return max(t.closedClean.Load(), 0) }

// unlink is gunlink's table half: an open file is marked for discard at its
// final close, a retired one leaves the closed table for the caller to discard.
func (t *ftable) unlink(path string) retiree {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd, ok := t.byPath[path]; ok {
		t.fds[fd].unlinked = true
		return retiree{}
	}
	return t.removeLocked(t.closedByPath[path])
}

// truncateOnce reports whether path has yet to be truncated by an O_TRUNC
// open, and records that it now has been.
func (t *ftable) truncateOnce(path string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := !t.truncated[path]
	t.truncated[path] = true
	return first
}

// removeLocked takes a retired cache, if any, out of the closed table.
func (t *ftable) removeLocked(fc *fileCache) retiree {
	if fc == nil {
		return retiree{}
	}
	if fc.keepFd == 0 || t.closed[fc.ino] != fc || t.closedByPath[fc.retiredAs] != fc {
		panic(fmt.Sprintf("gpufs: closed-table indexes disagree about %q (inode %d)", fc.retiredAs, fc.ino))
	}
	fc.older.newer, fc.newer.older = fc.newer, fc.older
	fc.older, fc.newer = nil, nil
	delete(t.closed, fc.ino)
	delete(t.closedByPath, fc.retiredAs)
	t.setRetired(fc, false)
	r := retiree{fc: fc, hostFd: fc.keepFd}
	fc.keepFd = 0
	return r
}

// take removes fc from the closed table if it is still retired as f's fast
// reopen found it: an open through another link, or a restart, may have won.
func (t *ftable) take(fc *fileCache, f *file) retiree {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fc.keepFd == 0 || fc.retiredAs != f.path || fc.lastFlags != f.flags {
		return retiree{}
	}
	return t.removeLocked(fc)
}

// reused records that a reopen or a host open took fc back from the closed
// table, and whether it found fc emptied.
func (t *ftable) reused(fc *fileCache) { t.rescan.Store(fc.frames.Load() == 0) }

// takeIno removes the cache retired for host inode ino, if any: a host open
// just learned which inode its path names.
func (t *ftable) takeIno(ino int64) retiree {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeLocked(t.closed[ino])
}

// reset empties both tables and the truncated-once set (the card restarted)
// and returns the open table's slots and the retired caches, oldest first.
func (t *ftable) reset() (open []*file, retired []retiree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ring.newer != &t.ring {
		retired = append(retired, t.removeLocked(t.ring.newer))
	}
	open, t.fds = t.fds, nil
	t.rescan.Store(false)
	t.byPath = make(map[string]int)
	t.truncated = make(map[string]bool)
	return open, retired
}

// cacheOf returns the cache of path, open or retired, or nil.
func (t *ftable) cacheOf(path string) *fileCache {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd, ok := t.byPath[path]; ok && t.fds[fd].fc != nil {
		return t.fds[fd].fc
	}
	return t.closedByPath[path]
}

// each calls visit, under the table lock, for the cache of every open file
// that has one, in descriptor order, then every retired cache, oldest first:
// with the path and flags it is open or retired under and its open entry.
func (t *ftable) each(visit func(fc *fileCache, path string, flags int, f *file)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.fds {
		if f != nil && f.fc != nil {
			visit(f.fc, f.path, f.flags, f)
		}
	}
	for fc := t.ring.newer; fc != &t.ring; fc = fc.newer {
		visit(fc, fc.retiredAs, fc.lastFlags, nil)
	}
}

// victims snapshots the files that hold frames in reclamation-priority order:
// closed files first (not in use, usually clean, reclaimable without GPU–CPU
// communication), then read-only open files, and writable open files as a
// last resort — the policy of §4.2. Closed files go oldest retirement first
// (the FIFO of paging's every other level, which keeps longest the file a
// late-scheduled block is about to reopen, §3.2), open files by descriptor.
// Demand paging keeps that FIFO whatever the reuses show: only speculation's
// walk (cleanVictims) turns around.
func (t *ftable) victims() []victim {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []victim
	for fc := t.ring.newer; fc != &t.ring; fc = fc.newer {
		if fc.frames.Load() > 0 {
			out = append(out, victim{fc: fc, hostFd: fc.keepFd, class: 0})
		}
	}
	for class := 1; class <= 2; class++ {
		for _, f := range t.fds {
			if f != nil && f.fc != nil && f.writable == (class == 2) && f.fc.frames.Load() > 0 {
				out = append(out, victim{fc: f.fc, hostFd: f.hostFd, class: class})
			}
		}
	}
	return out
}

// cleanVictims appends to dst, up to its capacity, the closed files that hold
// clean pages, for speculation, which may take nothing else. They go oldest
// retirement first, the head of victims' order, unless the latest reuse found
// its cache emptied (rescan): then newest first. Under a cyclic scan over more
// files than the cache holds, FIFO takes exactly the file the scan reopens
// next; newest first keeps the oldest retirements, which it reopens soonest.
// A reuse that finds its pages is the late-block reopen FIFO protects (§3.2),
// and turns the walk back. A caller's array keeps it off the heap.
func (t *ftable) cleanVictims(dst []victim) []victim {
	t.mu.Lock()
	defer t.mu.Unlock()
	step := func(fc *fileCache) *fileCache { return fc.newer }
	if t.rescan.Load() {
		step = func(fc *fileCache) *fileCache { return fc.older }
	}
	for fc := step(&t.ring); fc != &t.ring && len(dst) < cap(dst); fc = step(fc) {
		if fc.clean.Load()>>1 > 0 {
			dst = append(dst, victim{fc: fc, hostFd: fc.keepFd, class: 0})
		}
	}
	return dst
}
