package core

import (
	"fmt"

	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
)

// gopen and gclose over the file tables of ftable.go. Every open is one
// sequence: enter the open table; host work (none for a fast reopen, a strong
// Open for a first gopen, OpenRelaxed for an open-ahead); finishOpen.

// Open implements gopen. All threads of the block invoke it collectively;
// the call runs once per block. Concurrent opens of the same file coalesce:
// one block performs the open, the rest wait and share the descriptor,
// which then merely has its reference count incremented (§3.2, §4.1).
//
// The second result is the bytes of the file the host open brought with it
// (see offer), 0 for every other open.
func (fs *FS) openImpl(b *gpu.Block, path string, flags int) (int, int64, error) {
	fs.opens.Add(1)
	b.Busy(fs.opt.APICostPerPage) // control-plane bookkeeping

	fd, f, cand, err := fs.ft.enter(path, flags, false)
	if f == nil {
		return fd, 0, err
	}
	var carried int64
	fc, hostFd, err := fs.reopen(b, f, cand)
	if fc == nil && err == nil {
		fc, hostFd, carried, err = fs.hostOpen(b, f)
	}
	fd, err = fs.finishOpen(b, fd, f, fc, hostFd, err)
	return fd, carried, err
}

// finishOpen ends the open of pending entry f with what the host work produced:
// a cache and host descriptor, or an error. The access profile the cache
// carries is replayed before any waiter is let in.
func (fs *FS) finishOpen(b *gpu.Block, fd int, f *file, fc *fileCache, hostFd int64, err error) (int, error) {
	if err != nil {
		fs.ft.fail(fd, f, err)
		return -1, err
	}
	fs.ft.complete(fd, f, fc, hostFd)
	fs.historyAttach(b, f)
	fs.ft.admit(fd, f)
	return fd, nil
}

// reopen is the fast path (§4.1): cand is in the closed file table under f's
// flags, and if the consistency layer's shared-memory generation table confirms
// the cached copy current it moves back to the open table with no CPU round
// trip. Write intent is registered while cand is still retired, so a refused
// reopen leaves the closed table as it was. Nil, nil sends the caller to the host.
func (fs *FS) reopen(b *gpu.Block, f *file, cand *fileCache) (*fileCache, int64, error) {
	if cand == nil || fs.opt.DisableFastReopen || !fs.sys.PeekValid(b.Clock, cand.ino, cand.gen.Load()) {
		return nil, 0, nil
	}
	if f.writable {
		if err := fs.sys.BeginWrite(cand.ino, f.writeShrd || f.writeOnce); err != nil {
			return nil, 0, err
		}
	}
	r := fs.ft.take(cand, f)
	if r.fc == nil {
		if f.writable {
			fs.sys.EndWrite(cand.ino)
		}
		return nil, 0, nil
	}
	fs.ft.reused(r.fc)
	fs.closedReuses.Add(1)
	return r.fc, r.hostFd, nil
}

// hostOpen forwards the first gopen of a file to the CPU and registers
// write intent. The file's first span rides back with the open (offer): the
// call offers frames of a fresh cache, and those that return filled are its
// first pages before any table shows it.
func (fs *FS) hostOpen(b *gpu.Block, f *file) (*fileCache, int64, int64, error) {
	fs.hostOpens.Add(1)

	// Writable files other than O_GWRONCE are opened read-write on the
	// host regardless of the GPU-visible mode: partial-page writes need
	// read-modify-write fetches, and the diff-and-merge protocol needs
	// pristine copies.
	hostFlags := f.flags & hostFlagMask
	if hostFlags&hostfs.O_TRUNC != 0 && !fs.ft.truncateOnce(f.path) {
		hostFlags &^= hostfs.O_TRUNC
	}
	switch {
	case f.writeOnce:
		hostFlags = (hostFlags &^ 0x3) | hostfs.O_WRONLY | hostfs.O_CREATE
	case f.writable:
		hostFlags = (hostFlags &^ 0x3) | hostfs.O_RDWR
	}
	if f.noSync {
		hostFlags |= hostfs.O_CREATE
	}
	c := fs.offer(b, f, newFileCache(f.path), true)
	hfd, info, ns, err := fs.lane(b).Open(b.Clock, f.path, hostFlags, hostfs.ModeRead|hostfs.ModeWrite, c.dsts(), c.head)
	fs.settle(b, &c, ns)
	if err != nil {
		return nil, 0, 0, err
	}

	if f.writable {
		// O_GWRONCE files may be write-shared across processors: each
		// byte is written at most once and diff-against-zeros merges
		// disjoint updates (§3.1). Other writes are single-writer
		// unless opened O_GWRSHARED.
		if err := fs.sys.BeginWrite(info.Ino, f.writeShrd || f.writeOnce); err != nil {
			fs.settle(b, &c, nil)
			fs.lane(b).Close(b.Clock, hfd)
			return nil, 0, 0, err
		}
	}
	fc := fs.adopt(b, c.fc, info, true)
	return fc, hfd, fs.accept(b, f, &c, fc, 0), nil
}

// newFileCache builds the empty cache of a host open of path; adopt gives it
// the identity the open learns.
func newFileCache(path string) *fileCache {
	return &fileCache{tree: radix.NewTree(), path: path}
}

// adopt picks the cache for a host open that found info. If the closed file
// table still holds the inode's and the consistency layer confirms the host
// copy unchanged, it moves back to the open table (§4.1), its retained
// descriptor giving way to the fresh one; otherwise it is discarded (lazy
// invalidation, §4.4) and fresh, built before the call, becomes the file's.
// Validation is a strong call: an open-ahead, which may not block its lane
// (validate false), just discards.
func (fs *FS) adopt(b *gpu.Block, fresh *fileCache, info hostfs.FileInfo, validate bool) *fileCache {
	if r := fs.ft.takeIno(info.Ino); r.fc != nil {
		gen := r.fc.gen.Load()
		if validate && fs.lane(b).Validate(b.Clock, info.Ino, gen) && info.Generation == gen {
			fs.ft.reused(r.fc)
			fs.closedReuses.Add(1)
			fs.lane(b).Close(b.Clock, r.hostFd)
			return r.fc
		}
		fs.discardCache(b, r)
	}
	fresh.lockRes = simtime.NewResource(fmt.Sprintf("gpu%d-treelock-%d", fs.gpuID, info.Ino))
	fresh.ino = info.Ino
	fresh.gen.Store(info.Generation)
	fresh.size.Store(info.Size)
	fs.sys.RecordCached(info.Ino, info.Generation)
	return fresh
}

// Close implements gclose: it decrements the file's reference count and, at
// zero, retires the entry to the closed file table with its pages and its
// host descriptor retained, so a matching reopen is free. No data is
// propagated to the host (§3.2); dirty pages wait for gfsync or eviction.
func (fs *FS) closeImpl(b *gpu.Block, fd int) error {
	b.Busy(fs.opt.APICostPerPage)

	f, last, discard, err := fs.ft.release(fd)
	if err != nil || !last {
		return err
	}
	// Caches this retirement displaced, and a temporary or unlinked file's
	// own: never written back, local pages reclaimed immediately.
	for _, r := range discard {
		fs.discardCache(b, r)
	}
	fs.historyRecord(f)
	if f.writable {
		fs.sys.EndWrite(f.fc.ino)
	}
	if f.noSync && !f.unlinked {
		return fs.lane(b).Unlink(b.Clock, f.path)
	}
	// Final close surfaces any asynchronous write-back error that no
	// gfsync reported (POSIX: close is the last chance to learn the data
	// didn't make it).
	return f.fc.takeWriteErr()
}

// discardCache drops every resident page of a cache that left the tables
// without write-back (invalidation or unlink), retires the tree's stats and
// closes its descriptor.
func (fs *FS) discardCache(b *gpu.Block, r retiree) {
	fs.dropCacheNoWriteback(b.Clock, r.fc)
	lf, lk := r.fc.tree.Stats()
	fs.retiredLockFree.Add(lf)
	fs.retiredLocked.Add(lk)
	fs.lane(b).Close(b.Clock, r.hostFd)
}

// Restart models the GPU-card restart of §3.3: a GPU software failure can
// require restarting the card, "thus losing the GPU's entire memory
// state". Every open descriptor becomes invalid, every cached page —
// including dirty data never synchronized — is discarded, and the host is
// told to forget this GPU's caches. Data previously propagated by gfsync
// or gmsync survives on the host (the failure semantics of the CPU page
// cache).
func (fs *FS) Restart(b *gpu.Block) {
	open, retired := fs.ft.reset()
	for _, f := range open {
		if f == nil || f.fc == nil {
			continue
		}
		if f.writable {
			fs.sys.EndWrite(f.fc.ino)
		}
		fs.dropCacheNoWriteback(b.Clock, f.fc)
		fs.lane(b).Close(b.Clock, f.hostFd)
	}
	for _, r := range retired {
		fs.dropCacheNoWriteback(b.Clock, r.fc)
		fs.lane(b).Close(b.Clock, r.hostFd)
	}
}
