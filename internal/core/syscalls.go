package core

import (
	"fmt"
	"io"

	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// The generic syscall surface, layered on the gsys dispatcher: open-ahead
// (relaxed pipelined gopen), gpread_warp (warp-granularity coalesced
// positioned reads), and the gpipe family (bounded kernel-to-kernel pipes
// brokered by the host daemon).

// --- Open-ahead -------------------------------------------------------

// OpenFuture is the join handle of an OpenAhead. Exactly one Wait is
// required: the eager path holds the opened file's reference until Wait
// transfers it to the caller.
type OpenFuture struct {
	fs    *FS
	path  string
	flags int
	start simtime.Time

	// fut is a successfully issued relaxed open, of descriptor fd, that
	// brought carried bytes of the file with it; nil makes Wait perform a
	// normal strong Open.
	fd      int
	carried int64
	fut     *gsys.Future
}

// OpenAhead issues gopen ahead of need: for a cold read-only open it
// dispatches the host open as a relaxed non-blocking syscall — the block's
// clock does not wait for the round trip, which Wait joins later — so a
// kernel can pipeline the opens of its next few inputs behind the current
// file's reads. Files already known to this GPU (open or in the closed
// file table), non-read-only flags, and relaxed-issue failures all fall
// back to a plain strong Open at Wait time, preserving the file API's
// semantics exactly.
func (fs *FS) OpenAhead(b *gpu.Block, path string, flags int) *OpenFuture {
	of := &OpenFuture{fs: fs, path: path, flags: flags, start: b.Clock.Now()}
	if flags != O_RDONLY {
		return of
	}
	fd, f, _, _ := fs.ft.enter(path, flags, true)
	if f == nil {
		return of
	}
	// Cold: gopens coalesce onto f as with a strong opener; the lane is not blocked.
	fs.opens.Add(1)
	b.Busy(fs.opt.APICostPerPage) // control-plane bookkeeping, as in gopen

	c := fs.offer(b, f, newFileCache(path), false)
	fut := fs.lane(b).OpenRelaxed(b.Clock, path, flags&hostFlagMask, hostfs.ModeRead|hostfs.ModeWrite, c.dsts())
	reply, err := fut.Reply(), fut.Err()
	var fc *fileCache
	if err == nil {
		fs.hostOpens.Add(1)
		fs.settle(b, &c, reply.Ns)
		fc = fs.adopt(b, c.fc, reply.Info, false)
		// The carried pages are usable when the open completes, which
		// whoever reads them first waits for, as for any asynchronous fill.
		of.carried = fs.accept(b, f, &c, fc, fut.Done())
	} else {
		fs.settle(b, &c, nil)
	}
	// Relaxed issues are never retried: a failure retracts the pending
	// entry and lets Wait run the strong (retrying) open path instead.
	if _, err := fs.finishOpen(b, fd, f, fc, reply.FD, err); err != nil {
		return of
	}
	of.fd, of.fut = fd, fut
	return of
}

// Wait joins the open: the block's clock advances to the host open's
// virtual completion and the descriptor is returned, its reference now
// owned by the caller (gclose releases it). Fallback futures perform a
// normal strong Open here.
func (of *OpenFuture) Wait(b *gpu.Block) (int, error) {
	if of.fut == nil {
		return of.fs.Open(b, of.path, of.flags)
	}
	of.fut.Wait(b.Clock)
	of.fs.record(b, trace.OpOpen, of.path, 0, of.carried, of.start, nil)
	return of.fd, nil
}

// --- gpread_warp ------------------------------------------------------

// WarpReq is one thread's positioned read within a gpread_warp call.
type WarpReq struct {
	Dst []byte
	Off int64
}

// warpContiguous reports whether the warp's requests form one ascending
// contiguous span, the pattern the coalescer turns into a single
// descriptor.
func warpContiguous(warp []WarpReq) bool {
	for i, r := range warp {
		if len(r.Dst) == 0 || r.Off < 0 {
			return false
		}
		if i > 0 && r.Off != warp[i-1].Off+int64(len(warp[i-1].Dst)) {
			return false
		}
	}
	return true
}

// readWarpImpl services one positioned read per thread, coalescing each
// warp whose requests form a contiguous ascending span into ONE syscall
// descriptor: the warp pays one descriptor's API cost instead of one per
// thread, and the span goes through the same page walk as a gread
// (readSpan) with the per-thread buffers as its scatter list, its fetches
// stamped warp-granularity on the wire. Warps with gaps, overlaps, or
// descending offsets fall back to per-thread gread semantics. Returns the
// total bytes read.
func (fs *FS) readWarpImpl(b *gpu.Block, fd int, reqs []WarpReq) (int64, error) {
	fs.warpReadCalls.Add(1)
	if len(reqs) == 0 {
		return 0, nil
	}
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return 0, err
	}
	if !f.readable {
		return 0, fmt.Errorf("%w: %q", ErrWriteOnly, f.path)
	}

	ws := b.Device().WarpSize()
	var dsts [][]byte // one warp's scatter list
	var total int64
	for wstart := 0; wstart < len(reqs); wstart += ws {
		warp := reqs[wstart:min(wstart+ws, len(reqs))]
		if warpContiguous(warp) {
			fs.warpCoalesced.Add(1)
			fs.warpDescriptors.Add(1)
			if warp[0].Off >= f.fc.size.Load() {
				continue // at or past EOF: nothing to describe
			}
			b.Busy(fs.opt.APICostPerPage) // one descriptor per warp
			if dsts == nil {
				dsts = make([][]byte, 0, ws)
			}
			dsts = dsts[:0]
			for _, r := range warp {
				dsts = append(dsts, r.Dst)
			}
			n, err := fs.readSpan(b, f, warp[0].Off, dsts, gsys.GranWarp)
			total += n
			if err != nil {
				return total, err
			}
			continue
		}
		// Divergent warp: per-thread fallback, one descriptor each.
		for _, r := range warp {
			fs.warpDescriptors.Add(1)
			n, err := fs.readImpl(b, fd, r.Dst, r.Off)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// WarpStats reports gpread_warp activity: calls, warps coalesced into one
// descriptor, and total descriptors issued (coalesced warps count one;
// divergent warps one per thread).
func (fs *FS) WarpStats() (calls, coalesced, descriptors int64) {
	return fs.warpReadCalls.Load(), fs.warpCoalesced.Load(), fs.warpDescriptors.Load()
}

// --- gpipe ------------------------------------------------------------

// Pipe ends, re-exported from the syscall layer.
const (
	PipeReader = gsys.PipeReader
	PipeWriter = gsys.PipeWriter
)

// PipeMode selects the end of a pipe.
type PipeMode = gsys.PipeMode

// pipeName resolves a pipe handle's name for tracing, best-effort.
func (fs *FS) pipeName(pd int64) string {
	name, _ := fs.pipeNames.Load(pd)
	s, _ := name.(string)
	return s
}

func (fs *FS) pipeOpenImpl(b *gpu.Block, name string, mode PipeMode, capBytes, writers int) (int64, error) {
	b.Busy(fs.opt.APICostPerPage)
	pd, err := fs.lane(b).PipeOpen(b.Clock, name, mode, capBytes, writers)
	if err != nil {
		return -1, err
	}
	fs.pipeNames.Store(pd, name)
	return pd, nil
}

func (fs *FS) pipeWriteImpl(b *gpu.Block, pd int64, data []byte) (int, error) {
	b.Busy(fs.opt.APICostPerPage)
	return fs.lane(b).PipeWrite(b.Clock, pd, data)
}

func (fs *FS) pipeReadImpl(b *gpu.Block, pd int64, dst []byte) (int, error) {
	b.Busy(fs.opt.APICostPerPage)
	return fs.lane(b).PipeRead(b.Clock, pd, dst)
}

func (fs *FS) pipeCloseImpl(b *gpu.Block, pd int64, mode PipeMode) error {
	b.Busy(fs.opt.APICostPerPage)
	return fs.lane(b).PipeClose(b.Clock, pd, mode)
}

// --- The public tracing wrappers --------------------------------------

// ReadWarp implements gpread_warp; see readWarpImpl for semantics.
func (fs *FS) ReadWarp(b *gpu.Block, fd int, reqs []WarpReq) (int64, error) {
	start := b.Clock.Now()
	n, err := fs.readWarpImpl(b, fd, reqs)
	var off int64
	if len(reqs) > 0 {
		off = reqs[0].Off
	}
	fs.record(b, trace.OpReadWarp, fs.pathOf(fd), off, n, start, err)
	return n, err
}

// PipeOpen implements gpipe_open; every opener of a named pipe declares
// the same capacity and writer count.
func (fs *FS) PipeOpen(b *gpu.Block, name string, mode PipeMode, capBytes, writers int) (int64, error) {
	start := b.Clock.Now()
	pd, err := fs.pipeOpenImpl(b, name, mode, capBytes, writers)
	fs.record(b, trace.OpPipeOpen, name, 0, 0, start, err)
	return pd, err
}

// PipeWrite implements gpipe_write: data is one atomic record, and the
// call blocks on virtual time while the pipe lacks room for all of it.
func (fs *FS) PipeWrite(b *gpu.Block, pd int64, data []byte) (int, error) {
	start := b.Clock.Now()
	n, err := fs.pipeWriteImpl(b, pd, data)
	fs.record(b, trace.OpPipeWrite, fs.pipeName(pd), 0, int64(n), start, err)
	return n, err
}

// PipeRead implements gpipe_read: up to len(dst) buffered bytes, blocking
// on virtual time while the pipe is empty with live writers; io.EOF once
// the declared writers have closed and the buffer drained.
func (fs *FS) PipeRead(b *gpu.Block, pd int64, dst []byte) (int, error) {
	start := b.Clock.Now()
	n, err := fs.pipeReadImpl(b, pd, dst)
	terr := err
	if terr == io.EOF {
		terr = nil // end of stream is an outcome, not a trace-worthy error
	}
	fs.record(b, trace.OpPipeRead, fs.pipeName(pd), 0, int64(n), start, terr)
	return n, err
}

// PipeClose implements gpipe_close for one end of the pipe.
func (fs *FS) PipeClose(b *gpu.Block, pd int64, mode PipeMode) error {
	start := b.Clock.Now()
	err := fs.pipeCloseImpl(b, pd, mode)
	fs.record(b, trace.OpPipeClose, fs.pipeName(pd), 0, 0, start, err)
	return err
}
