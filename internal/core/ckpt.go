package core

import (
	"bytes"
	"errors"
	"fmt"

	"gpufs/internal/ckpt"
	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

// Checkpointing a live FS. The engine produces a ckpt.FSImage of this
// GPU's buffer cache and file tables while kernels keep running:
//
//	WalkCheckpoint  runs on a host-side actor with its OWN virtual
//	        clock (the cleaner's discipline): it enumerates the file
//	        tables, then copies dirty pages by value and clean pages by
//	        reference while threadblocks proceed.
//	Commit  validates the speculation (PhoenixOS-style). A file whose
//	        dirty pages this GPU wrote back after the walk enumerated it
//	        fails the capture (ErrCaptureRaced). Every speculated clean
//	        set is checked against the live host (ino + generation): if
//	        the host moved underneath, the clean references are dropped
//	        and the restore simply starts cold for that file. Dirty pages
//	        are otherwise never dropped; they are the payload.
//
// The snapshot is fuzzy at page granularity: each page's cut is the
// walk's copy, taken under the frame lock a gwrite holds while its bytes
// land, so no page is ever torn. Files opened after the walk enumerated
// the tables miss the image entirely; callers that need a consistent
// cut quiesce first, as the serving layer's queue freeze does.

// ErrCaptureRaced fails a checkpoint whose walk copied a file's dirty
// pages before this GPU wrote that file back: a copy may predate bytes a
// returned gfsync put on the host, and restoring it would write it back
// over them. The caller falls back to drain and cold replace.
var ErrCaptureRaced = errors.New("gpufs: checkpoint raced a write-back")

// ckptFileEntry is one file's walk state, held until Commit.
type ckptFileEntry struct {
	fc      *fileCache
	retired bool // from the closed-file table, not a live descriptor
	img     ckpt.FileImage
}

// Ckpt is one walked, not yet committed, checkpoint of a single FS.
type Ckpt struct {
	fs    *FS
	clk   *simtime.Clock
	files []ckptFileEntry
	bytes int64 // captured by value, against Options.CkptMaxBytes
	err   error // ckpt.ErrBudget once bytes overran the budget
}

// WalkCheckpoint copies the buffer cache into a new checkpoint,
// concurrently with running kernels, on an actor clock that starts at
// start: dirty pages by value, clean pages by reference.
func (fs *FS) WalkCheckpoint(start simtime.Time) *Ckpt {
	ck := &Ckpt{fs: fs, clk: simtime.NewClock(start)}

	// Enumerate both tables; page copies happen after the table lock is
	// dropped. Temporary (O_NOSYNC) and unlinked files die with the host by
	// definition. Retired files go in retirement order: the restore opens
	// and closes the image's files in turn, so its closed table ends in it.
	fs.ft.each(func(fc *fileCache, path string, flags int, f *file) {
		if f != nil && (f.noSync || f.unlinked) {
			return
		}
		e := ckptFileEntry{fc: fc, retired: f == nil, img: ckpt.FileImage{
			Path:  path,
			Ino:   fc.ino,
			Gen:   fc.gen.Load(),
			Size:  fc.size.Load(),
			Flags: int64(flags),
		}}
		if prof := fc.profile.Load(); prof != nil {
			e.img.Strides = *prof
		}
		ck.files = append(ck.files, e)
	})

	var snap []byte // every page is copied through it
	for i := 0; i < len(ck.files) && ck.err == nil; i++ {
		e := &ck.files[i]
		fc := e.fc
		// Peek (do not consume) the sticky errseq mark: the image must
		// carry it, but if the checkpoint fails the source still owes
		// the error to the next gfsync/gclose.
		fc.wbMu.Lock()
		if fc.wbErr != nil {
			e.img.WbErr = fc.wbErr.Error()
		}
		fc.wbMu.Unlock()

		writeOnce := e.img.Flags&O_GWRONCE != 0
		fc.tree.ForEachReadyPage(func(idx uint64, p *radix.FPage) bool {
			fr := fs.hold(fc, p)
			if fr == nil {
				return true
			}
			snap = snap[:0]
			data, _, valid := fr.Snapshot(&snap)
			dirty := fr.Dirty.Load()
			p.Unref()
			ck.clk.Advance(fs.opt.APICostPerPage)
			switch {
			case dirty:
				e.img.Dirty = append(e.img.Dirty, ckpt.PageImage{
					Index: int64(idx),
					Valid: valid,
					Data:  bytes.Clone(data),
				})
				ck.bytes += valid
				fs.ckptSnapshotBytes.Add(valid)
				if fs.opt.CkptMaxBytes > 0 && ck.bytes > fs.opt.CkptMaxBytes {
					ck.err = ckpt.ErrBudget
					return false
				}
			case !writeOnce:
				// Clean at the cut: the host holds these bytes; record by
				// reference (validated at commit). O_GWRONCE pages are
				// implicit zeros — a restore re-materializes them by
				// faulting, so they need no record at all.
				e.img.Clean = append(e.img.Clean, int64(idx))
			}
			return true
		})
	}
	return ck
}

// Commit validates the walk's image and returns it. A file whose cached
// generation moved since the walk enumerated it was written back by
// this GPU meanwhile (adoptGeneration is the one place it moves after
// gopen); if the walk copied dirty pages of it, the capture fails with
// ErrCaptureRaced. Every speculated clean set is validated against the
// live host: a file whose (ino, generation) no longer checks out keeps
// its dirty pages (device writes the host never saw — the payload) but
// drops the clean references, so a restore can never serve stale bytes.
func (ck *Ckpt) Commit() (*ckpt.FSImage, error) {
	if ck.err != nil {
		return nil, ck.err
	}
	for i := range ck.files {
		if e := &ck.files[i]; len(e.img.Dirty) > 0 && e.fc.gen.Load() != e.img.Gen {
			return nil, fmt.Errorf("%w: %q", ErrCaptureRaced, e.img.Path)
		}
	}

	fs := ck.fs
	img := &ckpt.FSImage{GPU: int64(fs.gpuID)}
	for i := range ck.files {
		e := &ck.files[i]
		needsCheck := len(e.img.Clean) > 0 || (e.retired && len(e.img.Dirty) > 0)
		if needsCheck && !fs.sys.PeekValid(ck.clk, e.img.Ino, e.img.Gen) {
			// The host moved underneath the speculation window: the
			// clean pages' by-reference capture is worthless (a restore
			// would fetch the NEW host content and call it the old).
			fs.ckptValidationDrops.Add(int64(len(e.img.Clean)))
			e.img.Clean = nil
			if e.retired {
				// A retired file with a stale generation is already
				// condemned on the source: its next reopen — on any host —
				// discards the view and adopts the host content (the
				// documented weak semantics). Restoring its dirty pages
				// would resurrect data the source itself would drop, so
				// the whole entry goes; only a sticky write-back error
				// still owed to the tenant keeps a page-less stub.
				fs.ckptValidationDrops.Add(int64(len(e.img.Dirty)))
				e.img.Dirty = nil
				if e.img.WbErr == "" {
					continue
				}
			}
		}
		fs.ckptPagesDirty.Add(int64(len(e.img.Dirty)))
		fs.ckptPagesClean.Add(int64(len(e.img.Clean)))
		img.Files = append(img.Files, e.img)
	}
	return img, nil
}

// Now reports the checkpoint actor's virtual time: start plus the walk
// and validation costs, the capture half of the migration latency.
func (ck *Ckpt) Now() simtime.Time { return ck.clk.Now() }

// RestoreImage materializes a checkpoint image onto this (fresh) FS,
// driven by a host-launched block so every fetch and write is charged to
// the restore's virtual timeline. Per file: open with the image's flags,
// re-write the dirty pages (they mark themselves dirty through the
// normal gwrite path, so the restored host writes them back exactly as
// the source would have), pre-fetch the validated clean pages through
// the vectored read path, re-arm the sticky errseq mark, and retire the
// file to the closed table so the next job fast-reopens it warm.
// Best-effort per file: a file that no longer opens is skipped (its
// tenants see a cold miss, not a dead host) and the first such error is
// reported.
func (fs *FS) RestoreImage(b *gpu.Block, img *ckpt.FSImage) error {
	var firstErr error
	for i := range img.Files {
		if err := fs.restoreFile(b, &img.Files[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (fs *FS) restoreFile(b *gpu.Block, fi *ckpt.FileImage) error {
	flags := int(fi.Flags)
	if flags&O_TRUNC != 0 {
		// The truncation happened on the source's timeline; replaying it
		// here would destroy the very content the image's clean pages
		// reference. Record it as already performed instead: hostOpen then
		// leaves O_TRUNC out of this open and of a tenant's re-open (the
		// once-only rule it enforces on the source).
		fs.ft.truncateOnce(fi.Path)
	}
	fd, _, err := fs.openImpl(b, fi.Path, flags)
	if err != nil && len(fi.Dirty) > 0 && flags&O_CREATE == 0 {
		// The new host lacks the file but the image carries content the
		// host never saw: recreate it rather than drop device writes.
		flags |= O_CREATE
		fd, _, err = fs.openImpl(b, fi.Path, flags)
	}
	if err != nil {
		return err
	}
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return err
	}
	fc := f.fc
	ps := fs.opt.PageSize

	for j := range fi.Dirty {
		pg := &fi.Dirty[j]
		data := pg.Data
		if int64(len(data)) > pg.Valid && pg.Valid >= 0 {
			data = data[:pg.Valid]
		}
		if len(data) == 0 || pg.Index < 0 {
			continue
		}
		if _, err := fs.writeImpl(b, fd, data, pg.Index*ps); err != nil {
			fs.closeImpl(b, fd)
			return err
		}
	}

	// Pre-warm the validated clean pages through the vectored read path
	// (consecutive indices coalesce into one RPC). SpecNone: these are
	// known-resident-on-the-source pages, not speculation — they stay
	// out of the prefetch counters, like multi-page gread batching.
	if len(fi.Clean) > 0 && !f.writeOnce {
		lastFile := (fc.size.Load() - 1) / ps
		clean := fi.Clean
		for j := 0; j < len(clean); {
			k := j + 1
			for k < len(clean) && clean[k] == clean[k-1]+1 {
				k++
			}
			start, count := clean[j], int64(k-j)
			j = k
			if start < 0 || start > lastFile {
				continue
			}
			if start+count-1 > lastFile {
				count = lastFile - start + 1
			}
			fs.spanFetch(b, f, start, count, 1, pcache.SpecNone)
		}
		// Spans are issued asynchronously; wait for residency so the
		// restored cache is warm (and its ReadyAt times charged) before
		// the host goes back into rotation. A page that cannot be
		// faulted (allocation pressure on a smaller replacement cache)
		// is left cold — clean pages are an optimization, not payload.
		for j := range clean {
			if clean[j] < 0 || clean[j] > lastFile {
				continue
			}
			if ref, _, err := fs.getPage(b, f, clean[j], nil); err == nil {
				ref.release()
			}
		}
	}

	if err := fs.closeImpl(b, fd); err != nil {
		return err
	}
	// The restore read no stream, so its close recorded no profile; the
	// image's goes in its place. It is the one profile that comes from
	// outside, so it is attached only to a cache of the file it was recorded
	// against: same size, same host generation.
	if fc.size.Load() == fi.Size && fc.gen.Load() == fi.Gen {
		fc.setProfile(fi.Strides)
	}
	// Re-arm the sticky write-back error AFTER the close, which would
	// otherwise have consumed it: the tenant's next gfsync/gclose on the
	// restored host must still learn the source's data didn't make it.
	if fi.WbErr != "" {
		fc.recordWriteErr(errors.New(fi.WbErr))
	}
	return nil
}
