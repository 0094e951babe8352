package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

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
//
// A non-nil whole is a gwrite that determines every byte of the page (see
// writeImpl): when the page has to be brought in, it is filled from those
// bytes instead of from the host (publishOverwrite) and the bool result is
// true — the bytes are in the frame and the page is dirty. A resident page is
// returned as for any other caller and the write is the caller's to apply.
func (fs *FS) getPage(b *gpu.Block, f *file, pageIdx int64, whole []byte) (pageRef, bool, error) {
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
					if at := fr.ReadyAt.Load(); at != 0 {
						b.Clock.AdvanceTo(simtime.Time(at))
						// First demand consumer claims the
						// speculation as a hit (the adaptive
						// window's ramp-up signal).
						replay := fr.Spec.CompareAndSwap(pcache.SpecReplay, pcache.SpecUsed)
						if replay || fr.Spec.CompareAndSwap(pcache.SpecPending, pcache.SpecUsed) {
							fs.prefetchUsed.Add(1)
							fc.prefetchUsed.Add(1)
							fs.specPending.Add(-1)
							if replay {
								fs.historyUsed.Add(1)
							}
						}
					}
					fs.cacheHits.Add(1)
					return pageRef{fr: fr, fp: fp}, false, nil
				}
			}
			fp.Unref()
			g.Exit()
			continue // stale frame; retry
		}

		// Slow path: try to become the initializer. The Init claim pins
		// the leaf, so the guard is dropped before the slow fault work.
		claimed := claim(fp, leaf)
		g.Exit()
		if claimed {
			ref := pageRef{fp: fp}
			fr, err := fs.allocFrame(b, fc, offset)
			if err != nil {
				fs.abort(b.Idx, fc, ref)
				return pageRef{}, false, err
			}
			ref.fr = fr
			if whole != nil {
				fs.publishOverwrite(b, f, ref, whole) // holds our reference
			} else if f.writeOnce {
				// O_GWRONCE: never fetch; the pristine copy is implicitly all
				// zeros (§3.1), publish's zero tail. O_NOSYNC files do NOT
				// take this shortcut: a page spilled to the host under cache
				// pressure must be fetched back on the next touch.
				fs.publish(b, f, ref, 0, 0, pcache.SpecNone)
			} else if err := fs.faultIn(b, f, ref, pageIdx); err != nil {
				return pageRef{}, false, err
			}
			b.Busy(fs.opt.APICostPerPage)
			fs.cacheMisses.Add(1)
			return ref, whole != nil, nil
		}

		// Another block is initializing or evicting this slot, or the leaf
		// was detached under us; yield and retry through a fresh lookup.
		// (Warps multiplex on the MP while blocked, §2.)
		runtime.Gosched()
	}
}

// faultIn fills and publishes the claimed page ref, page idx of f, with one
// strong read that also carries, as speculation, the window raCarry claims.
func (fs *FS) faultIn(b *gpu.Block, f *file, ref pageRef, idx int64) error {
	start, off := b.Clock.Now(), idx*fs.opt.PageSize
	var run [maxSegs]pageRef
	var segs [maxSegs][]byte
	run[0] = ref
	k := 1 + fs.raCarry(b, f, idx, run[1:])
	for i, r := range run[:k] {
		segs[i] = r.fr.Data
	}
	ns, err := fs.lane(b).Read(b.Clock, f.hostFd, off, segs[:k])
	if err != nil {
		fs.abort(b.Idx, f.fc, run[:k]...)
		return fmt.Errorf("gpufs: faulting page at %d of %q: %w", off, f.path, err)
	}
	if k > 1 {
		fs.publishRun(b, f, run[1:k], ns[1:], b.Clock.Now(), pcache.SpecPending, off+fs.opt.PageSize, start)
	}
	fs.publish(b, f, ref, ns[0], 0, pcache.SpecNone)
	return nil
}

// raise lifts v to at least n (atomic max): the valid extent of a frame, the
// size of a file and its generation only ever grow under concurrent updates.
func raise(v *atomic.Int64, n int64) {
	for {
		cur := v.Load()
		if n <= cur || v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// extendValid raises fr.ValidBytes to at least n.
func extendValid(fr *pcache.Frame, n int64) { raise(&fr.ValidBytes, n) }

// extendSize raises fc.size to at least n.
func extendSize(fc *fileCache, n int64) { raise(&fc.size, n) }

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
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return 0, err
	}
	if !f.readable {
		return 0, fmt.Errorf("%w: %q", ErrWriteOnly, f.path)
	}
	done, err := fs.readSpan(b, f, off, dst)
	if err == nil && done > 0 {
		ps := fs.opt.PageSize
		fs.adaptiveReadAhead(b, f, off/ps, (off+done-1)/ps)
	}
	return int(done), err
}

// readSpan is the page walk of every read: it moves the file extent at off
// into dst, clamped to end of file, and returns the bytes moved.
//
// A read spanning several pages issues the later pages' fetches
// asynchronously BEFORE faulting the first page, so all of them are in
// flight on the block's ring shard at once: the daemon worker pipelines the
// file reads and the DMAs overlap, instead of one blocking round trip per
// page. The walk then finds the frames resident (or initializing) and
// advances the block's clock to each transfer's completion through
// Frame.ReadyAt — the same mechanism read-ahead uses. The planner sizes the
// batch (plan): pages past it fall back to synchronous faults in the walk.
func (fs *FS) readSpan(b *gpu.Block, f *file, off int64, dst []byte) (int64, error) {
	want := int64(len(dst))
	size := f.fc.size.Load()
	if off >= size {
		return 0, nil
	}
	if off+want > size {
		want = size - off
	}
	ps := fs.opt.PageSize
	first, last := off/ps, (off+want-1)/ps
	if n := fs.plan(onBatch, f, first+1, last-first, 1, 0); n > 0 {
		fs.spanFetch(b, f, first+1, n, 1, pcache.SpecNone)
	}

	var done int64
	for done < want {
		cur := off + done
		pageIdx := cur / ps
		inPage := cur - pageIdx*ps
		n := min(ps-inPage, want-done)

		ref, _, err := fs.getPage(b, f, pageIdx, nil)
		if err != nil {
			return done, err
		}
		ref.fr.Lock()
		fs.copyOut(b, dst[done:], ref.fr.Data[inPage:inPage+n])
		ref.fr.Unlock()
		ref.release()
		done += n
	}
	return done, nil
}

// copyOut moves src — bytes of one locked, referenced page frame — into
// dst, which must have room. The preset takes effect here and only as a
// charge: in the extended system the caller reads the pinned frame in
// place, one device-memory pass (the Go copy only materializes the API
// contract that the destination owns the data); the prototype's copy costs
// two.
func (fs *FS) copyOut(b *gpu.Block, dst, src []byte) {
	if fs.inPlace {
		b.TouchBytes(int64(copy(dst, src)))
		fs.zeroCopyReads.Add(1)
		return
	}
	b.CopyBytes(dst, src)
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
	f, err := fs.ft.lookup(fd)
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

		// A write that starts at the page boundary and covers the page, or
		// reaches the file's end, determines every byte of it: a page not
		// resident is then filled from these bytes rather than fetched to be
		// overwritten. O_GWRSHARED pages are fetched regardless, for the
		// pristine copy their write-back diffs against.
		var whole []byte
		if inPage == 0 && !f.writeShrd && (n == ps || cur+n >= f.fc.size.Load()) {
			whole = src[done : done+n]
		}
		ref, wrote, err := fs.getPage(b, f, pageIdx, whole)
		if err != nil {
			return int(done), err
		}
		if !wrote {
			ref.fr.Lock()
			b.CopyBytes(ref.fr.Data[inPage:inPage+n], src[done:done+n])
			extendValid(ref.fr, inPage+n)
			ref.fr.Unlock()
			fs.markDirty(f.fc, ref)
		}
		ref.release()
		done += n
	}
	extendSize(f.fc, off+want)
	b.MemFence()
	return int(done), nil
}
