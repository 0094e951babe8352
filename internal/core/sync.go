package core

import (
	"fmt"

	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/trace"
)

// Fsync implements gfsync: it synchronously writes back to the host every
// dirty page of the file that is not currently memory-mapped (Table 1 —
// mapped pages are the application's to gmsync). Pages merely referenced
// by a concurrent gread/gwrite or another block's gfsync ARE written
// back: the frame snapshot protocol makes that race-free, and skipping
// them would let this gfsync return success while the caller's own dirty
// bytes silently stay behind. It does not force the host to push the data
// to disk; see FsyncDisk for the stable-storage variant.
func (fs *FS) fsyncImpl(b *gpu.Block, fd int) error {
	return fs.syncFile(b, fd, 0, -1)
}

// FsyncRange is gfsync restricted to the byte range [off, off+n): the
// paper's gfsync synchronizes "either an entire file or a specific offset
// range" (§3.2). Only dirty pages intersecting the range are written back.
func (fs *FS) FsyncRange(b *gpu.Block, fd int, off, n int64) error {
	start := b.Clock.Now()
	err := fs.fsyncRangeImpl(b, fd, off, n)
	fs.record(b, trace.OpFsync, fs.pathOf(fd), off, n, start, err)
	return err
}

func (fs *FS) fsyncRangeImpl(b *gpu.Block, fd int, off, n int64) error {
	if off < 0 || n < 0 {
		return fmt.Errorf("%w: fsync range [%d,+%d)", ErrInvalid, off, n)
	}
	return fs.syncFile(b, fd, off, n)
}

// syncFile writes back dirty, unmapped pages intersecting [off, off+n) — each
// run of adjacent dirty ranges as one write, every write issued before any is
// waited for — and returns once they, and any write-back of those pages found
// in flight, are on the host; n < 0 means the whole file.
func (fs *FS) syncFile(b *gpu.Block, fd int, off, n int64) error {
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return err
	}
	fc := f.fc
	var firstErr error
	wb := writeBack{fs: fs, a: fs.blockActor(b), fc: fc, hostFd: f.hostFd}
	ps := fs.opt.PageSize
	fc.tree.ForEachReadyPage(func(idx uint64, p *radix.FPage) bool {
		if n >= 0 {
			pageOff := int64(idx) * ps
			if pageOff+ps <= off || pageOff >= off+n {
				return true // outside the requested range
			}
		}
		if p.Mapped() {
			// Memory-mapped; the application must gmsync such pages
			// itself (Table 1). A plain reference (mid-gread/gwrite, or a
			// concurrent gfsync) does NOT exempt the page: write-back
			// snapshots under the frame lock and clears the dirty flag
			// before snapshotting, so a racing writer's bytes either ship
			// now or re-dirty the page for its own gfsync — whereas
			// skipping here would silently break the durability contract
			// for whichever block gfsyncs while another is mid-flight.
			return true
		}
		fr := fs.hold(fc, p)
		if fr == nil {
			return true
		}
		// Clean pages too: one may owe its clean flag to a write-back
		// another block or the cleaner still has in flight, and "gfsync
		// returned" means the host has the bytes.
		if err := wb.frame(fr, p); err != nil && firstErr == nil {
			firstErr = err
		}
		return true
	})
	if err := wb.done(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return firstErr
	}
	// Surface any asynchronous (eviction-driven) write-back failure
	// recorded since the last sync — exactly once.
	return fc.takeWriteErr()
}

// FsyncDisk forces the file to stable storage: a gfsync to the host page
// cache followed by a host-side fsync to disk — the "forcing writes to
// stable storage, equivalent to fsync or msync on CPUs" of §3.3.
func (fs *FS) FsyncDisk(b *gpu.Block, fd int) error {
	if err := fs.Fsync(b, fd); err != nil {
		return err
	}
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return err
	}
	return fs.lane(b).Fsync(b.Clock, f.hostFd)
}

// recordWriteErr notes an asynchronous write-back failure; the first error
// wins until a sync reports it.
func (fc *fileCache) recordWriteErr(err error) {
	if err == nil {
		return
	}
	fc.wbMu.Lock()
	if fc.wbErr == nil {
		fc.wbErr = err
	}
	fc.wbMu.Unlock()
}

// takeWriteErr returns the pending write-back error and clears it, so each
// failure is reported exactly once.
func (fc *fileCache) takeWriteErr() error {
	fc.wbMu.Lock()
	err := fc.wbErr
	fc.wbErr = nil
	fc.wbMu.Unlock()
	return err
}
