package core

import (
	"errors"
	"sync"

	"gpufs/internal/ckpt"
	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

// Checkpointing a live FS (ISSUE 10). The engine produces a ckpt.FSImage
// of this GPU's buffer cache and file tables while kernels keep running,
// with copy-on-write over the device arena:
//
//	Begin   installs the capture pointer; from here every gwrite's page,
//	        the instant before it is overwritten, is offered to the
//	        capture (one atomic load on the hot path when no capture is
//	        active: a gwrite that no checkpoint overlaps is charged
//	        nothing for it).
//	Walk    runs on a host-side actor with its OWN virtual clock (the
//	        cleaner's discipline), copying dirty pages by value and clean
//	        pages by reference while threadblocks proceed.
//	Commit  uninstalls the pointer, merges the write-fault copies with
//	        the walk's, and validates every file's speculated clean set
//	        against the live host (ino + generation, PhoenixOS-style):
//	        if the host moved underneath, the clean references are
//	        dropped — the restore simply starts cold for that file.
//	        Dirty pages are never dropped; they are the payload.
//
// The snapshot is fuzzy at page granularity: each page's cut lands
// somewhere between Begin and Commit (the walk's copy, or the pre-write
// copy taken by the first overlapping gwrite — whichever comes first),
// and no page is ever torn, because both copies run under the frame
// lock. Files opened after the walk enumerated the tables miss the
// image entirely; callers that need a consistent cut quiesce first, as
// the serving layer's queue freeze does.

// ErrCheckpointActive is returned by BeginCheckpoint when a capture is
// already installed.
var ErrCheckpointActive = errors.New("gpufs: checkpoint already in progress")

// ckptPageKey identifies one captured page.
type ckptPageKey struct {
	fc   *fileCache
	page int64
}

// ckptCapture is the CoW rendezvous between the walk and concurrent
// writers. The write hook holds the frame lock when it takes mu; the
// walk NEVER holds mu while touching a frame, so the order is acyclic.
type ckptCapture struct {
	mu   sync.Mutex
	done map[ckptPageKey]struct{}
	// cow and cowClean hold pages captured by the write hook before the
	// walk reached them: value copies of pre-write dirty content, and
	// by-reference records of pre-write clean pages.
	cow      map[*fileCache][]ckpt.PageImage
	cowClean map[*fileCache][]int64
	bytes    int64
	maxBytes int64
	err      error
}

// ckptCopyOnWrite is the gwrite hook: called with the frame lock held,
// immediately before the new bytes land, so fr.Data still holds the
// pre-write content. First capture of a page wins; later writes to the
// same page find it done and pay only the map probe.
func (fs *FS) ckptCopyOnWrite(cap *ckptCapture, fc *fileCache, pageIdx int64, fr *pcache.Frame) {
	key := ckptPageKey{fc, pageIdx}
	cap.mu.Lock()
	if _, ok := cap.done[key]; ok || cap.err != nil {
		cap.mu.Unlock()
		return
	}
	cap.done[key] = struct{}{}
	if !fr.Dirty.Load() {
		// Clean at the cut: the host holds these bytes; record by
		// reference (validated at commit). O_GWRONCE pages are implicit
		// zeros — a restore re-materializes them by faulting, so they
		// need no record at all.
		if !fr.WriteOnce.Load() {
			cap.cowClean[fc] = append(cap.cowClean[fc], pageIdx)
		}
		cap.mu.Unlock()
		fs.ckptCoWFaults.Add(1)
		return
	}
	valid := fr.ValidBytes.Load()
	data := append([]byte(nil), fr.Data[:valid]...)
	cap.bytes += valid
	if cap.maxBytes > 0 && cap.bytes > cap.maxBytes {
		cap.err = ckpt.ErrBudget
	}
	cap.cow[fc] = append(cap.cow[fc], ckpt.PageImage{Index: pageIdx, Valid: valid, Data: data})
	cap.mu.Unlock()
	fs.ckptCoWFaults.Add(1)
	fs.ckptSnapshotBytes.Add(valid)
}

// ckptFileEntry is one file's walk state, held between Walk and Commit.
type ckptFileEntry struct {
	fc      *fileCache
	retired bool // from the closed-file table, not a live descriptor
	img     ckpt.FileImage
}

// Ckpt is one in-progress checkpoint of a single FS.
type Ckpt struct {
	fs    *FS
	cap   *ckptCapture
	clk   *simtime.Clock
	files []ckptFileEntry
}

// BeginCheckpoint installs the copy-on-write capture and returns the
// checkpoint handle, whose actor clock starts at start. Kernels keep
// running; their writes from this moment on preserve pre-write pages
// into the image.
func (fs *FS) BeginCheckpoint(start simtime.Time) (*Ckpt, error) {
	cap := &ckptCapture{
		done:     make(map[ckptPageKey]struct{}),
		cow:      make(map[*fileCache][]ckpt.PageImage),
		cowClean: make(map[*fileCache][]int64),
		maxBytes: fs.opt.CkptMaxBytes,
	}
	if !fs.capture.CompareAndSwap(nil, cap) {
		return nil, ErrCheckpointActive
	}
	clk := simtime.NewClock(0)
	clk.AdvanceTo(start)
	return &Ckpt{fs: fs, cap: cap, clk: clk}, nil
}

// Walk copies the buffer cache into the checkpoint, concurrently with
// running kernels: dirty pages by value, clean pages by reference. Each
// page's copy runs under the frame lock and races the write hook
// through the capture's done set — whichever records the page first
// wins, so the page's cut is unique and untorn.
func (ck *Ckpt) Walk() {
	fs := ck.fs

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

	cap := ck.cap
	var snap []byte // every page is copied through it, then out of it
	for i := range ck.files {
		e := &ck.files[i]
		fc := e.fc
		// Peek (do not consume) the sticky errseq mark: the image must
		// carry it, but if the checkpoint aborts the source still owes
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
			pageIdx := int64(idx)
			key := ckptPageKey{fc, pageIdx}
			cap.mu.Lock()
			_, dup := cap.done[key]
			failed := cap.err != nil
			cap.mu.Unlock()
			if dup || failed {
				p.Unref()
				return !failed
			}
			// Copy OUTSIDE cap.mu: Snapshot takes the frame lock, which
			// a concurrent writer holds while taking cap.mu in the hook.
			snap = snap[:0]
			data, _, valid := fr.Snapshot(&snap)
			dirty := fr.Dirty.Load()
			if valid > int64(len(data)) {
				valid = int64(len(data))
			}
			cap.mu.Lock()
			if _, dup := cap.done[key]; !dup && cap.err == nil {
				// A writer that beat us to the done set holds the
				// earlier (pre-write) cut; ours would be post-write.
				cap.done[key] = struct{}{}
				switch {
				case dirty:
					e.img.Dirty = append(e.img.Dirty, ckpt.PageImage{
						Index: pageIdx,
						Valid: valid,
						Data:  append([]byte(nil), data[:valid]...),
					})
					cap.bytes += valid
					if cap.maxBytes > 0 && cap.bytes > cap.maxBytes {
						cap.err = ckpt.ErrBudget
					}
					fs.ckptSnapshotBytes.Add(valid)
				case !writeOnce:
					e.img.Clean = append(e.img.Clean, pageIdx)
				}
			}
			cap.mu.Unlock()
			p.Unref()
			ck.clk.Advance(fs.opt.APICostPerPage)
			return true
		})
	}
}

// Commit uninstalls the capture, merges the write-fault copies into the
// walk's image, and validates every speculated clean set against the
// live host: a file whose (ino, generation) no longer checks out keeps
// its dirty pages (device writes the host never saw — the payload) but
// drops the clean references, so a restore can never serve stale bytes.
func (ck *Ckpt) Commit() (*ckpt.FSImage, error) {
	fs := ck.fs
	cap := ck.cap
	fs.capture.CompareAndSwap(cap, nil)
	cap.mu.Lock()
	err := cap.err
	cap.mu.Unlock()
	if err != nil {
		return nil, err
	}

	img := &ckpt.FSImage{GPU: int64(fs.gpuID)}
	for i := range ck.files {
		e := &ck.files[i]
		cap.mu.Lock()
		cow := cap.cow[e.fc]
		cowClean := cap.cowClean[e.fc]
		cap.mu.Unlock()
		e.img.Dirty = append(e.img.Dirty, cow...)
		e.img.Clean = append(e.img.Clean, cowClean...)

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

// Abort uninstalls the capture and discards everything gathered.
func (ck *Ckpt) Abort() {
	ck.fs.capture.CompareAndSwap(ck.cap, nil)
	ck.files = nil
}

// Now reports the checkpoint actor's virtual time.
func (ck *Ckpt) Now() simtime.Time { return ck.clk.Now() }

// CheckpointImage is the one-shot capture: Begin + Walk + Commit. It
// returns the image and the actor's end time (start plus the walk and
// validation costs — the capture half of the migration latency).
func (fs *FS) CheckpointImage(start simtime.Time) (*ckpt.FSImage, simtime.Time, error) {
	ck, err := fs.BeginCheckpoint(start)
	if err != nil {
		return nil, start, err
	}
	ck.Walk()
	img, err := ck.Commit()
	if err != nil {
		ck.Abort()
		return nil, ck.Now(), err
	}
	return img, ck.Now(), nil
}

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
