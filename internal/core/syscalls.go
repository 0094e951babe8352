package core

import (
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Open-ahead: gopen issued as a relaxed, pipelined syscall, the one call
// beyond the paper's API. Like every GPUfs call it is block-collective.

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
