package core

import (
	"fmt"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// writeBackGap is how close two dirty ranges must be before write-back
// coalesces them into one RPC write.
const writeBackGap = 512

// writeBackFrame propagates a dirty page to the host through hostFd,
// sending only the bytes this GPU actually modified:
//
//   - O_GWRONCE pages diff against implicit zeros (no pristine copy is
//     stored), so write-back reduces to transferring non-zero ranges.
//   - Write-shared pages diff against the pristine copy preserved at first
//     read, so concurrent modifications of other portions of the same page
//     by other processors are not reverted (the false-sharing hazard of
//     §3.1).
//   - Exclusively written pages are sent whole over their valid extent.
//
// On return the frame is clean and, for write-shared pages, the pristine
// copy is advanced to the page's current content so future diffs are
// relative to this sync.
func (fs *FS) writeBackFrame(b *gpu.Block, hostFd int64, fr *pcache.Frame) error {
	return fs.writeBackFrameOn(fs.lane(b), b.Clock, hostFd, fr)
}

// writeBackFrameOn is writeBackFrame parameterized by the acting RPC lane
// and clock, so the background cleaner can write pages back on its own
// timeline instead of a faulting threadblock's.
func (fs *FS) writeBackFrameOn(lane *gsys.Client, clk *simtime.Clock, hostFd int64, fr *pcache.Frame) error {
	// One write-back of a page at a time, from before the dirty flag
	// clears until the last range is on the host (see Frame.WriteBack).
	fr.WriteBack.Lock()
	defer fr.WriteBack.Unlock()
	// Clear the dirty flag BEFORE snapshotting: a write racing with this
	// sync either lands in the snapshot (shipped now, re-flagged
	// harmlessly) or re-dirties the page for the next sync. Either way
	// nothing is lost.
	fr.Dirty.Store(false)
	data, pristine, valid := fr.Snapshot()
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
		if _, err := lane.WritePages(clk, hostFd, base+r.Start, data[r.Start:r.End]); err != nil {
			fr.Dirty.Store(true)
			return fmt.Errorf("gpufs: writing back page at %d: %w", base, err)
		}
	}
	if pristine != nil {
		fr.SetPristine(data)
	}
	return nil
}

// refreshGeneration re-reads the host file's generation after this GPU
// propagated writes, so the consistency layer keeps considering our cached
// copy current. If another processor wrote concurrently, the generations
// will not line up and the next gopen will (correctly) invalidate us.
func (fs *FS) refreshGeneration(b *gpu.Block, fc *fileCache, hostFd int64) {
	fs.refreshGenerationOn(fs.lane(b), b.Clock, fc, hostFd)
}

func (fs *FS) refreshGenerationOn(lane *gsys.Client, clk *simtime.Clock, fc *fileCache, hostFd int64) {
	info, err := lane.Stat(clk, hostFd)
	if err != nil {
		return // stale generation only costs an extra invalidation
	}
	fc.gen.Store(info.Generation)
	fs.sys.RecordCached(fc.ino, info.Generation)
}

// Fsync implements gfsync: it synchronously writes back to the host every
// dirty page of the file that is not currently memory-mapped (Table 1 —
// mapped pages are the application's to gmsync). Pages merely referenced
// by a concurrent gread/gwrite or another block's gfsync ARE written
// back: the frame snapshot protocol makes that race-free, and skipping
// them would let this gfsync return success while the caller's own dirty
// bytes silently stay behind. It does not force the host to push the data
// to disk; see FsyncDisk for the stable-storage variant.
func (fs *FS) fsyncImpl(b *gpu.Block, fd int) error {
	f, err := fs.lookupFd(fd)
	if err != nil {
		return err
	}
	err = fs.syncFile(b, f.fc, f.hostFd, 0, -1)
	if err == nil {
		// Surface any asynchronous (eviction-driven) write-back failure
		// recorded since the last sync — exactly once.
		err = f.fc.takeWriteErr()
	}
	return err
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
	f, err := fs.lookupFd(fd)
	if err != nil {
		return err
	}
	err = fs.syncFile(b, f.fc, f.hostFd, off, n)
	if err == nil {
		err = f.fc.takeWriteErr()
	}
	return err
}

// syncFile writes back dirty, unmapped pages intersecting [off, off+n);
// n < 0 means the whole file.
func (fs *FS) syncFile(b *gpu.Block, fc *fileCache, hostFd int64, off, n int64) error {
	var firstErr error
	wrote := false
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
		if !p.TryRef() {
			return true
		}
		fi := p.Frame()
		if fi < 0 {
			p.Unref()
			return true
		}
		fr := fs.cache.Frame(fi)
		if fr.FileID.Load() != fc.tree.ID() || !fr.Dirty.Load() {
			p.Unref()
			return true
		}
		if err := fs.writeBackFrame(b, hostFd, fr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			wrote = true
		}
		p.Unref()
		return true
	})
	if wrote {
		fs.refreshGeneration(b, fc, hostFd)
	}
	return firstErr
}

// FsyncDisk forces the file to stable storage: a gfsync to the host page
// cache followed by a host-side fsync to disk — the "forcing writes to
// stable storage, equivalent to fsync or msync on CPUs" of §3.3.
func (fs *FS) FsyncDisk(b *gpu.Block, fd int) error {
	if err := fs.Fsync(b, fd); err != nil {
		return err
	}
	f, err := fs.lookupFd(fd)
	if err != nil {
		return err
	}
	return fs.lane(b).Fsync(b.Clock, f.hostFd)
}
