package core

import (
	"fmt"

	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
)

// Info is the result of gfstat.
type Info struct {
	// Path the file was opened with.
	Path string
	// Ino is the host inode number.
	Ino int64
	// Size reflects the file size at the time of the first gopen that
	// opened this file on the host (Table 1), extended by writes issued
	// locally on this GPU.
	Size int64
}

// Fstat implements gfstat. It is served entirely from GPU-resident state —
// no CPU communication — because the open file table already captured the
// metadata at first open (Table 1).
func (fs *FS) fstatImpl(b *gpu.Block, fd int) (Info, error) {
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return Info{}, err
	}
	b.Busy(fs.opt.APICostPerPage)
	return Info{
		Path: f.path,
		Ino:  f.fc.ino,
		Size: f.fc.size.Load(),
	}, nil
}

// Ftruncate implements gftruncate: it truncates the host file to size via
// RPC and reclaims any buffer-cache pages wholly beyond the new end
// (Table 1). The page straddling the boundary has its valid extent clamped.
func (fs *FS) ftruncateImpl(b *gpu.Block, fd int, size int64) error {
	if size < 0 {
		return fmt.Errorf("%w: truncate to %d", ErrInvalid, size)
	}
	f, err := fs.ft.lookup(fd)
	if err != nil {
		return err
	}
	if !f.writable {
		return fmt.Errorf("%w: %q", ErrReadOnly, f.path)
	}
	gen, err := fs.lane(b).Truncate(b.Clock, f.hostFd, size)
	if err != nil {
		return err
	}

	fc := f.fc
	fs.adoptGeneration(fc, gen)
	fc.size.Store(size)
	ps := fs.opt.PageSize
	fc.tree.ForEachReadyPage(func(idx uint64, p *radix.FPage) bool {
		pageOff := int64(idx) * ps
		if pageOff+ps <= size {
			return true
		}
		fr := fs.beginEvict(p)
		if fr == nil {
			return true // in use; its stale tail is masked by fc.size
		}
		if pageOff >= size {
			// Wholly beyond the new end: reclaim.
			fs.reclaim(b.Clock, fc, p, fr, false)
			b.Busy(fs.opt.APICostPerPage)
			return true
		}
		// Straddling page: clamp the valid extent and zero the tail, so a
		// later local write past the new end cannot re-expose
		// pre-truncation bytes.
		v := size - pageOff
		fr.Lock()
		if fr.ValidBytes.Load() > v {
			fr.ValidBytes.Store(v)
		}
		b.ZeroBytes(fr.Data[v:])
		fr.Unlock()
		cancelEvict(p)
		return true
	})
	return nil
}

// Unlink implements gunlink: the file is removed on the host and any local
// buffer space is reclaimed immediately (Table 1). If the file is currently
// open on this GPU, the host unlink still happens; local pages are
// discarded when the last gclose retires the descriptor.
func (fs *FS) unlinkImpl(b *gpu.Block, path string) error {
	if err := fs.lane(b).Unlink(b.Clock, path); err != nil {
		return err
	}

	if r := fs.ft.unlink(path); r.fc != nil {
		fs.discardCache(b, r)
	}
	return nil
}
