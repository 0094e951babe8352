package serve

import (
	"errors"
	"fmt"

	"gpufs/internal/ckpt"
	"gpufs/internal/core"
	"gpufs/internal/simtime"
)

// Host checkpoint and restore (ISSUE 10): the serving layer's half of
// live migration. Checkpoint overlaps the expensive part of the capture
// — the per-GPU buffer-cache walk — with the in-flight batches it has to
// wait out anyway:
//
//	1. Stop admission and dispatch (the handoff freeze begins). Batches
//	   already launched keep running.
//	2. Walk every GPU's cache concurrently with those kernels; each
//	   page's cut is the walk's copy of it.
//	3. Flush the queues (jobs complete with ErrHandedOff, exactly as
//	   DrainForHandoff), wait for in-flight work, stop the workers.
//	4. Commit: validate speculated clean pages against the live host,
//	   and fail the capture if a GPU wrote back a file whose dirty pages
//	   the walk copied (core.ErrCaptureRaced).
//
// The serving kernels are read-only (execJob), so nothing an in-flight
// batch does after its page's cut can invalidate the image, and the
// commit's write-back check never fires here.
//
// A failed Checkpoint still leaves the host fully drained with every
// admitted Future resolved — the caller's fallback (drain + cold
// replace) needs no second drain, and DrainForHandoff stays a safe
// no-op afterwards.

// ErrNotRestorable rejects a Restore on a host that has already served
// traffic or begun draining.
var ErrNotRestorable = errors.New("serve: restore requires a fresh host")

// Checkpoint implements Backend: capture this host into a migratable
// image while finishing its in-flight work. See the package notes above
// for the protocol. Counts as the host's one drain call.
func (s *Server) Checkpoint() (*ckpt.Image, error) {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.draining = true
	s.handoff = true
	s.cond.Broadcast()
	s.mu.Unlock()

	start := simtime.Time(s.vnow.Load())
	cks := make([]*core.Ckpt, s.sys.NumGPUs())
	for g := range cks {
		cks[g] = s.sys.GPU(g).FS().WalkCheckpoint(start)
	}

	// Freeze: flush the queues, wait out in-flight batches, stop workers.
	// (draining/handoff are already set; freezeAndFlush re-setting them
	// is idempotent.)
	flushed := s.freezeAndFlush()

	img := &ckpt.Image{SourceHost: -1, CaptureStart: int64(start)}
	end := start
	var err error
	for g, ck := range cks {
		fsImg, cerr := ck.Commit()
		if cerr != nil {
			err = fmt.Errorf("serve: checkpoint gpu %d: %w", g, cerr)
			break
		}
		img.GPUs = append(img.GPUs, *fsImg)
		end = max(end, ck.Now())
	}

	// The flushed jobs complete with ErrHandedOff whether or not the
	// capture succeeded: the freeze already stopped this host from ever
	// running them, and the fleet must re-route them exactly once.
	now := simtime.Time(s.vnow.Load())
	for _, f := range flushed {
		s.completeJob(f.j, f.g, -1, now, now, ErrHandedOff)
	}
	if err != nil {
		return nil, err
	}

	for _, f := range flushed {
		img.Queued = append(img.Queued, ckpt.JobImage{
			ID:       int64(f.j.id),
			Tenant:   f.j.tenant,
			Kind:     int64(f.j.spec.Kind),
			Path:     f.j.spec.Path,
			Word:     f.j.spec.Word,
			Deadline: int64(f.j.spec.Deadline),
		})
	}
	img.CaptureEnd = int64(max(end, now))
	return img, nil
}

// Restore implements Backend: materialize img onto this freshly built
// host — per-GPU cache contents and file tables via the core restore
// engine. The restore's virtual cost advances the server clock, so
// migration latency is visible in Now(). Best-effort per GPU image: a file
// that no longer restores leaves its tenants with a cold miss, not a dead
// host; the first error is reported after everything restorable is in
// place.
func (s *Server) Restore(img *ckpt.Image) error {
	s.mu.Lock()
	fresh := !s.draining && !s.closed && s.idleLocked() && s.vnow.Load() == 0
	s.mu.Unlock()
	if !fresh {
		return ErrNotRestorable
	}
	var firstErr error
	for i := range img.GPUs {
		fi := &img.GPUs[i]
		g := int(fi.GPU)
		if g < 0 || g >= s.sys.NumGPUs() {
			// The replacement host is smaller than the source; that GPU's
			// cache state has nowhere to land. Skip it — its files reopen
			// cold on whichever device the placement layer picks.
			continue
		}
		end, err := s.sys.GPU(g).RestoreImage(fi)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		s.advanceNow(end)
	}
	return firstErr
}
