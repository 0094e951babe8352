package core

import (
	"fmt"

	"gpufs/internal/gpu"
)

// Mapping is a gmmap'd file region: a window directly into a buffer-cache
// page, residing in the same address space and protection domain as the
// application's GPU code (§3.2). The mapping holds a reference on its page,
// pinning it against reclamation until gmunmap.
type Mapping struct {
	// Data is the mapped bytes — an alias of the page frame, so reads
	// and writes go straight to the buffer cache with no copy.
	Data []byte
	// FileOffset is the file offset of Data[0].
	FileOffset int64

	fs    *FS
	f     *file
	ref   pageRef
	valid bool
}

// Mmap implements gmmap, the relaxed mmap of §3.2. Its loosened contract is
// what makes it implementable without per-thread translation updates:
//
//   - It may map less than requested: the mapping never crosses a buffer
//     cache page boundary, so the caller gets the prefix of [off,
//     off+length) that fits in one page and must loop for more (the
//     paper's microbenchmarks map page-at-a-time for exactly this reason).
//   - There is no address-targeted mapping (no MAP_FIXED).
//   - Permissions are advisory: mapping a read-only file may return
//     writable memory. GPUfs trusts the application not to modify it, and
//     never propagates "improper" updates to such quasi-read-only pages
//     back to the host, preserving host file integrity.
//
// For readable files the mapping is also clamped to the file size captured
// at open (extended by local writes). For write-only opens it is clamped
// only by the page boundary, and the mapped region becomes part of the
// file when written and synced.
func (fs *FS) mmapImpl(b *gpu.Block, fd int, off, length int64) (*Mapping, error) {
	if off < 0 || length <= 0 {
		return nil, fmt.Errorf("%w: mmap off=%d len=%d", ErrInvalid, off, length)
	}
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return nil, err
	}

	ps := fs.opt.PageSize
	pageIdx := off / ps
	inPage := off - pageIdx*ps

	// Prefix semantics: clamp to the page boundary…
	n := ps - inPage
	if n > length {
		n = length
	}
	// …and, for readable files, to end of file.
	if f.readable {
		size := f.fc.size.Load()
		if off >= size {
			return nil, fmt.Errorf("%w: mmap at %d beyond EOF %d", ErrInvalid, off, size)
		}
		if off+n > size {
			n = size - off
		}
	}

	ref, _, err := fs.getPage(b, f, pageIdx, nil)
	if err != nil {
		return nil, err
	}
	// Mark the page mapped (beyond the plain reference): gfsync must leave
	// it to the application's gmsync while this window is live (Table 1).
	ref.fp.MapRef()
	b.Busy(fs.opt.APICostPerPage)
	// gmmap is page-at-a-time by design (prefix semantics), so it is the
	// adaptive engine's most important hook: sequential mappers touch one
	// page per call and would otherwise never amortize the RPC latency.
	fs.adaptiveReadAhead(b, f, pageIdx, pageIdx)
	return &Mapping{
		Data:       ref.fr.Data[inPage : inPage+n],
		FileOffset: off,
		fs:         fs,
		f:          f,
		ref:        ref,
		valid:      true,
	}, nil
}

// FrameIndex reports the pframe backing the mapping (the raw-data-array
// slot gmunmap/gmsync recover by index arithmetic, §4.2).
func (m *Mapping) FrameIndex() int32 { return m.ref.fr.Index }

// Munmap implements gmunmap: it drops the mapping's page reference, making
// the page reclaimable again. Dirty state set via MarkDirty (or by gwrite
// to the same page) survives and is propagated by gfsync/gmsync/eviction.
func (m *Mapping) munmapImpl(b *gpu.Block) error {
	if !m.valid {
		return ErrBadMapping
	}
	m.valid = false
	b.Busy(m.fs.opt.APICostPerPage)
	m.ref.fp.MapUnref()
	m.ref.release()
	m.Data = nil
	return nil
}

// MarkDirty records that the application wrote through the mapping, so the
// page participates in write-back. Writes through mappings of read-only
// opens are deliberately NOT propagated (quasi-read-only semantics, §3.2):
// MarkDirty on such a mapping is a no-op.
func (m *Mapping) MarkDirty() {
	if m.valid && m.f.writable {
		m.fs.markDirty(m.f.fc, m.ref)
		extendValid(m.ref.fr, m.FileOffset-m.ref.fr.Offset.Load()+int64(len(m.Data)))
		extendSize(m.f.fc, m.FileOffset+int64(len(m.Data)))
	}
}

// Msync implements gmsync: it synchronously writes this specific page back
// to the host. The application must coordinate gmsync calls with updates by
// other threadblocks (Table 1) — GPUfs does not lock out concurrent writers
// of the same page here.
func (m *Mapping) msyncImpl(b *gpu.Block) error {
	if !m.valid {
		return ErrBadMapping
	}
	if !m.f.writable {
		return nil // quasi-read-only: never propagated
	}
	wb := writeBack{fs: m.fs, a: m.fs.blockActor(b), fc: m.f.fc, hostFd: m.f.hostFd}
	err := wb.frame(m.ref.fr, nil)
	if derr := wb.done(); err == nil {
		err = derr
	}
	return err
}

// Write copies data into the mapping at the given offset relative to the
// mapping start, marks the page dirty, and issues the gwrite memory fence.
// It is a convenience wrapper equivalent to writing m.Data directly and
// calling MarkDirty, but with the device-memory cost accounted.
func (m *Mapping) Write(b *gpu.Block, at int64, data []byte) (int, error) {
	if !m.valid {
		return 0, ErrBadMapping
	}
	if at < 0 || at >= int64(len(m.Data)) {
		return 0, fmt.Errorf("%w: mapping write at %d of %d", ErrInvalid, at, len(m.Data))
	}
	m.ref.fr.Lock()
	n := b.CopyBytes(m.Data[at:], data)
	m.ref.fr.Unlock()
	m.MarkDirty()
	b.MemFence()
	return n, nil
}

// Read copies from the mapping into dst at the cost of any other read of a
// resident page (FS.copyOut): the mapping IS an alias of the pinned frame.
func (m *Mapping) Read(b *gpu.Block, at int64, dst []byte) (int, error) {
	if !m.valid {
		return 0, ErrBadMapping
	}
	if at < 0 || at >= int64(len(m.Data)) {
		return 0, fmt.Errorf("%w: mapping read at %d of %d", ErrInvalid, at, len(m.Data))
	}
	n := min(len(dst), len(m.Data)-int(at))
	m.ref.fr.Lock()
	m.fs.copyOut(b, dst, m.Data[at:int(at)+n])
	m.ref.fr.Unlock()
	return n, nil
}
