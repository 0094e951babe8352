package core

import (
	"fmt"
	"runtime"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

// pageRef is a referenced buffer-cache page: the caller holds one reference
// on fp, protecting fr against reclamation, and must release it.
type pageRef struct {
	fr *pcache.Frame
	fp *radix.FPage
}

func (r pageRef) release() { r.fp.Unref() }

// getPage locates (or faults in) the page of f covering pageIdx and returns
// it referenced. It implements the paper's retry protocol: two lock-free
// lookup attempts, then a locked lookup; initialization and page-out
// exclude each other through the fpage state machine; and frames reached
// through stale paths are rejected by identifier validation.
//
// Every traversal attempt runs under an epoch guard (radix.Tree.Pin): the
// guard spans the lookup and every touch of the returned slot, up to the
// point where a successful TryRef (a Ready slot with a reference pins the
// leaf against RemoveLeaf) or a successful TryBeginInit + Detached check
// (an Init slot pins it likewise) makes the leaf's identity stable without
// it. The guard is dropped before the slow work — frame allocation,
// eviction, the fill RPC — so a faulting block never delays leaf recycling.
func (fs *FS) getPage(b *gpu.Block, f *file, pageIdx int64) (pageRef, error) {
	fc := f.fc
	offset := pageIdx * fs.opt.PageSize

	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt < 3 {
			// A previous unlocked attempt failed; Table 2 counts
			// these retries with the locked accesses.
			fc.tree.CountRetry()
		}
		g := fc.tree.Pin()
		var fp *radix.FPage
		var leaf *radix.Node
		if attempt < 2 && !fs.opt.ForceLockedTraversal {
			// The lock-free walk is a few dependent reads of radix
			// nodes: device-memory traffic, largely hidden by warp
			// multiplexing, competing only for memory bandwidth.
			b.UseMemory(fs.opt.RadixLookupLockFree)
			fp, leaf = fc.tree.LookupLeaf(uint64(pageIdx))
		} else {
			// Third attempt (or forced mode): locked traversal.
			// Locked lookups serialize on the tree in virtual time,
			// which is what makes them ~3x slower under contention
			// (Figure 7).
			b.Clock.Use(fc.lockRes, fs.opt.RadixLookupLocked)
			fp, leaf = fc.tree.LookupLockedLeaf(uint64(pageIdx))
		}
		if fp == nil {
			// Path not materialized: insert the slot (a locked
			// update) and fall through to claim it.
			fp, leaf = fc.tree.Insert(uint64(pageIdx))
		}

		// Fast path: the page is resident.
		if fp.TryRef() {
			fi := fp.Frame()
			if fi >= 0 {
				fr := fs.cache.Frame(fi)
				if fr.Matches(fc.tree.ID(), offset) {
					g.Exit() // the reference now pins the leaf
					// A read-ahead transfer is usable only once
					// it completes; synchronous faults were paid
					// for by the faulting block.
					if fr.Prefetched.Load() {
						b.Clock.AdvanceTo(simtime.Time(fr.ReadyAt.Load()))
						// First demand consumer claims the
						// speculation as a hit (the adaptive
						// window's ramp-up signal).
						if fr.Spec.CompareAndSwap(pcache.SpecPending, pcache.SpecUsed) {
							fs.prefetchUsed.Add(1)
							fc.prefetchUsed.Add(1)
							fs.specPending.Add(-1)
						} else if fr.Spec.CompareAndSwap(pcache.SpecReplay, pcache.SpecUsed) {
							fs.prefetchUsed.Add(1)
							fc.prefetchUsed.Add(1)
							fs.historyUsed.Add(1)
							fs.specPending.Add(-1)
						}
					}
					fs.cacheHits.Add(1)
					return pageRef{fr: fr, fp: fp}, nil
				}
			}
			fp.Unref()
			g.Exit()
			continue // stale frame; retry
		}

		// Slow path: try to become the initializer.
		if fp.TryBeginInit() {
			if leaf.Detached() {
				// Claim/detach race (see radix.RemoveLeaf): the leaf
				// left the tree between our lookup and the claim.
				// Initializing a frame here would strand it on an
				// unreachable node; retry through a fresh lookup.
				fp.AbortInit()
				g.Exit()
				continue
			}
			// The Init claim pins the leaf (RemoveLeaf requires every
			// slot Empty); drop the guard before the slow fault work.
			g.Exit()
			fr, err := fs.allocFrame(b, fc, offset)
			if err != nil {
				fp.AbortInit()
				return pageRef{}, err
			}
			if err := fs.fillPage(b, f, fr, offset); err != nil {
				fs.cache.Release(fr, false)
				fc.frames.Add(-1)
				fp.AbortInit()
				return pageRef{}, err
			}
			b.Busy(fs.opt.APICostPerPage)
			fp.FinishInit(fr.Index) // holds our reference
			fs.cacheMisses.Add(1)
			return pageRef{fr: fr, fp: fp}, nil
		}

		// Another block is initializing or evicting this slot; yield
		// and retry. (Warps multiplex on the MP while blocked, §2.)
		g.Exit()
		runtime.Gosched()
	}
}

// fillPage initializes a freshly allocated frame: zero-fill for O_GWRONCE
// files (whose pristine content is implicitly zero, so nothing is fetched
// from the CPU, §3.1), or an RPC read of the page's file content otherwise.
// Threads of the block perform the copy or zeroing collaboratively (§4.1).
func (fs *FS) fillPage(b *gpu.Block, f *file, fr *pcache.Frame, offset int64) error {
	if f.writeOnce {
		// O_GWRONCE: never fetch; the pristine copy is implicitly all
		// zeros (§3.1). O_NOSYNC files do NOT take this shortcut: a
		// page spilled to the host under cache pressure must be
		// fetched back on the next touch.
		b.ZeroBytes(fr.Data)
		fr.WriteOnce.Store(true)
		fr.ValidBytes.Store(0)
		fr.ReadyAt.Store(int64(b.Clock.Now()))
		return nil
	}

	n, err := fs.lane(b).ReadPages(b.Clock, f.hostFd, offset, fr.Data)
	if err != nil {
		return fmt.Errorf("gpufs: faulting page at %d of %q: %w", offset, f.path, err)
	}
	if n < len(fr.Data) {
		// Zero the tail so reads past EOF (after local extension)
		// observe zeros rather than a previous tenant's bytes.
		b.ZeroBytes(fr.Data[n:])
	}
	fr.ValidBytes.Store(int64(n))
	fr.ReadyAt.Store(int64(b.Clock.Now()))
	if f.writeShrd {
		// General write-sharing: preserve the pristine copy the
		// diff-and-merge protocol diffs against at sync time.
		fr.SetPristine(fr.Data[:n])
	}
	return nil
}

// extendValid raises fr.ValidBytes to at least n (atomic max).
func extendValid(fr *pcache.Frame, n int64) {
	for {
		cur := fr.ValidBytes.Load()
		if n <= cur || fr.ValidBytes.CompareAndSwap(cur, n) {
			return
		}
	}
}

// extendSize raises fc.size to at least n (atomic max).
func extendSize(fc *fileCache, n int64) {
	for {
		cur := fc.size.Load()
		if n <= cur || fc.size.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Read implements gread: a positional read of len(dst) bytes at offset off
// (the pread-style call of Table 1 — no seek pointer exists to share).
// Unlike gmmap it is not constrained to a single cache page, making it the
// right call for random access at arbitrary granularity (§5.1.2). Threads
// of the block copy the data collaboratively. Returns the byte count,
// short at end of file.
func (fs *FS) readImpl(b *gpu.Block, fd int, dst []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f, err := fs.lookupFd(fd)
	if err != nil {
		return 0, err
	}
	if !f.readable {
		return 0, fmt.Errorf("%w: %q", ErrWriteOnly, f.path)
	}

	size := f.fc.size.Load()
	if off >= size {
		return 0, nil
	}
	want := int64(len(dst))
	if off+want > size {
		want = size - off
	}

	ps := fs.opt.PageSize
	firstPage := off / ps
	lastPage := (off + want - 1) / ps

	// A read spanning several pages issues the later pages' fetches
	// asynchronously BEFORE faulting the first page, so all of them are
	// in flight on the block's ring shard at once: the daemon worker
	// pipelines the file reads and the DMAs overlap, instead of one
	// blocking round trip per page. The copy loop below then finds the
	// frames resident (or initializing) and advances the block's clock to
	// each transfer's completion through Frame.ReadyAt — the same
	// mechanism read-ahead uses. Speculation is bounded: pages past the
	// budget fall back to synchronous faults in the loop.
	if lastPage > firstPage && !f.writeOnce {
		budget := fs.fetchBudget()
		for pageIdx := firstPage + 1; pageIdx <= lastPage && budget > 0; pageIdx++ {
			// SpecNone: these pages are known-needed by this very read,
			// not speculation — they stay out of the prefetch counters.
			fs.prefetchPage(b, f, pageIdx, pcache.SpecNone)
			budget--
		}
	}

	var done int64
	for done < want {
		cur := off + done
		pageIdx := cur / ps
		inPage := cur - pageIdx*ps
		n := ps - inPage
		if n > want-done {
			n = want - done
		}

		ref, err := fs.getPage(b, f, pageIdx)
		if err != nil {
			return int(done), err
		}
		ref.fr.Lock()
		if fs.opt.ZeroCopyRead {
			// Zero-copy hit: the caller reads the pinned frame in place, so
			// the only modelled cost is one device-memory pass over the
			// bytes (the Go copy below just materializes the API contract
			// that dst owns the data).
			copy(dst[done:done+n], ref.fr.Data[inPage:inPage+n])
			b.TouchBytes(n)
			fs.zeroCopyReads.Add(1)
		} else {
			b.CopyBytes(dst[done:done+n], ref.fr.Data[inPage:inPage+n])
		}
		ref.fr.Unlock()
		ref.release()
		done += n
	}
	if fs.opt.ReadAheadAdaptive {
		fs.adaptiveReadAhead(b, f, firstPage, (off+done-1)/ps)
	}
	return int(done), nil
}

// Write implements gwrite: a positional write of len(src) bytes at offset
// off. The data lands in the GPU buffer cache; it propagates to the host
// only on gfsync/gmsync or under cache pressure (§3.2). Each thread issues
// a memory fence when the write completes so a later page-out by DMA
// observes the data (§4.1).
func (fs *FS) writeImpl(b *gpu.Block, fd int, src []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	f, err := fs.lookupFd(fd)
	if err != nil {
		return 0, err
	}
	if !f.writable {
		return 0, fmt.Errorf("%w: %q", ErrReadOnly, f.path)
	}

	ps := fs.opt.PageSize
	want := int64(len(src))
	var done int64
	for done < want {
		cur := off + done
		pageIdx := cur / ps
		inPage := cur - pageIdx*ps
		n := ps - inPage
		if n > want-done {
			n = want - done
		}

		ref, err := fs.getPage(b, f, pageIdx)
		if err != nil {
			return int(done), err
		}
		ref.fr.Lock()
		// Checkpoint copy-on-write (ISSUE 10): with a capture installed,
		// preserve the pre-write page into the in-progress image before
		// the new bytes land. One atomic load when no checkpoint runs.
		if cc := fs.capture.Load(); cc != nil {
			fs.ckptCopyOnWrite(cc, f.fc, pageIdx, ref.fr)
		}
		b.CopyBytes(ref.fr.Data[inPage:inPage+n], src[done:done+n])
		extendValid(ref.fr, inPage+n)
		ref.fr.Unlock()
		ref.fr.Dirty.Store(true)
		ref.release()
		done += n
	}
	extendSize(f.fc, off+want)
	b.MemFence()
	return int(done), nil
}
