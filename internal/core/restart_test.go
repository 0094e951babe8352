package core

import (
	"testing"

	"gpufs/internal/gpu"
)

// TestRestartReclaimsPrefetchedFrames is the regression test for the
// prefetch frame leak: read-ahead initializes page slots asynchronously,
// and a slot claimed on a leaf that FIFO reclamation detaches concurrently
// would strand its frame on an unreachable node — Restart's cache sweep
// (like eviction's) walks only attached leaves, so the frame would never
// return to the free list. After a restart, every frame must be free.
func TestRestartReclaimsPrefetchedFrames(t *testing.T) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize
	opt.EvictBatch = 64 // drain whole leaves so RemoveLeaf fires
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	total := 32 * opt.PageSize
	h.write(t, "/big", pattern(int(total), 11))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/big", O_RDWR)
		if err != nil {
			return err
		}
		// Stream with read-ahead under eviction pressure: prefetch claims
		// race leaf reclamation. Dirty a few pages too, so restart also
		// covers discarding unsynced data.
		buf := make([]byte, opt.PageSize)
		for off := int64(0); off < total; off += opt.PageSize {
			if _, err := fs.Read(b, fd, buf, off); err != nil {
				return err
			}
		}
		if _, err := fs.Write(b, fd, []byte("doomed"), 0); err != nil {
			return err
		}
		fs.Restart(b)
		return nil
	})

	if free, num := fs.Cache().FreeFrames(), fs.Cache().NumFrames(); free != num {
		t.Fatalf("restart leaked %d frames (%d/%d free)", num-free, free, num)
	}
	// The card's memory is gone; the host keeps only what was synced.
	if got := h.read(t, "/big"); string(got[:6]) == "doomed" {
		t.Fatalf("unsynced dirty data survived a restart")
	}

	// The instance stays usable: a fresh open re-faults from the host.
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/big", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
}
