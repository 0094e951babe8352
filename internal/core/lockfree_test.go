package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/gpu"
)

// Tests for the ISSUE 8 lock-free hot path: the sharded frame allocator
// must never re-introduce spurious ErrCacheFull and must be metamorphically
// invisible (same bytes, same CacheStats), the zero-copy read path must
// serve the same bytes, and the epoch domains must not leak retired leaves.

// TestShardedEvictionNoSpuriousCacheFull pins frames with long-lived
// mappings so reclamation has to dig past whole leaves of referenced pages,
// then keeps reading under a sharded allocator. With the pre-ISSUE-8
// advisory leaf bound (+8 leaves, sized for a single free list) a sharded
// pool could exhaust a lane's home shard and the steal ring while the
// evictable pages sat beyond the bound; the shard-aware bound plus
// steal-on-empty must make every read succeed.
func TestShardedEvictionNoSpuriousCacheFull(t *testing.T) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 16 * opt.PageSize // 16 frames over 4 shards
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	ps := int(opt.PageSize)
	// File A: pages at leaf stride (one leaf per page), pinned by mappings.
	h.write(t, "/pinned", pattern(12*64*ps, 1))
	// File B: the working set that must keep cycling through what's left.
	wantB := pattern(20*ps, 2)
	h.write(t, "/work", wantB)

	h.run(t, 0, func(b *gpu.Block) error {
		fdA, err := fs.Open(b, "/pinned", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fdA)
		// Pin 12 of the 16 frames, each on its own radix leaf, so the
		// eviction scan sees 12 fully referenced leaves before any victim.
		var maps []*Mapping
		for i := 0; i < 12; i++ {
			m, err := fs.Mmap(b, fdA, int64(i*64*ps), int64(ps))
			if err != nil {
				return fmt.Errorf("pin %d: %w", i, err)
			}
			maps = append(maps, m)
		}

		fdB, err := fs.Open(b, "/work", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fdB)
		got := make([]byte, ps)
		// 3 passes over 20 pages through the 4 unpinned frames: every read
		// past the first few forces eviction, and every allocation runs
		// against a mostly-pinned sharded pool.
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 20; i++ {
				n, err := fs.Read(b, fdB, got, int64(i*ps))
				if err != nil {
					return fmt.Errorf("pass %d page %d: %w", pass, i, err)
				}
				if n != ps || !bytes.Equal(got, wantB[i*ps:(i+1)*ps]) {
					return fmt.Errorf("pass %d page %d: bad bytes (n=%d)", pass, i, n)
				}
			}
		}
		for _, m := range maps {
			if err := m.Munmap(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestMetamorphicZeroCopy runs the PR-5 read-shape suite on both presets:
// the extended system's in-place reads change how bytes are served (aliasing
// vs copying), and its read-ahead which transaction brings a page in — never
// the bytes, nor how much of the file crosses the link: each page exactly
// once, whatever the shape. Only the extended system serves pages in place.
// Within a preset the multiprocessor count, which sets the extended system's
// allocator shards, changes only which free list a frame comes from — never
// WHICH pages are fetched, prefetched, or cleaned: bytes and CacheStats must
// be identical on one MP and on four.
func TestMetamorphicZeroCopy(t *testing.T) {
	ps := int(defaultOpt().PageSize)
	want := pattern(10*ps+777, 5)

	run := func(t *testing.T, opt Options, shape readShape) ([]byte, CacheStats) {
		t.Helper()
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/meta", want)
		got := make([]byte, len(want))
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/meta", O_RDONLY)
			if err != nil {
				return err
			}
			if err := shape.read(fs, b, fd, got); err != nil {
				return fmt.Errorf("shape %s: %w", shape.name, err)
			}
			return fs.Close(b, fd)
		})
		if h2d, _, _ := fs.Client().Link().Stats(); h2d != int64(len(want)) {
			t.Errorf("shape %s on %d MPs: %d bytes crossed the link for a %d-byte file",
				shape.name, opt.MPsPerGPU, h2d, len(want))
		}
		if inPlace := fs.ZeroCopyReads() > 0; inPlace == opt.Prototype {
			t.Errorf("shape %s on %d MPs: %d page reads served in place; want some in the extended system only",
				shape.name, opt.MPsPerGPU, fs.ZeroCopyReads())
		}
		return got, fs.CacheStats()
	}

	for _, pol := range readPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			for _, shape := range readShapes(ps) {
				opt := pol.opt()
				opt.MPsPerGPU = 1
				baseGot, baseCS := run(t, opt, shape)
				if !bytes.Equal(baseGot, want) {
					t.Errorf("shape %s: bytes diverge from source", shape.name)
				}
				opt.MPsPerGPU = 4
				got, cs := run(t, opt, shape)
				if !bytes.Equal(got, baseGot) {
					t.Errorf("shape %s: bytes on 4 MPs diverge from 1 MP", shape.name)
				}
				if cs != baseCS {
					t.Errorf("shape %s: CacheStats on 4 MPs %+v diverge from 1 MP %+v",
						shape.name, cs, baseCS)
				}
			}
		})
	}
}

// TestEpochLeafLeakFree drives enough eviction churn to detach and recycle
// leaves, then checks every retired leaf was (or can be) reclaimed: after
// quiescence each tree's epoch domain must have freed exactly what it
// retired.
func TestEpochLeafLeakFree(t *testing.T) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize // tiny: constant eviction
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	ps := int(opt.PageSize)
	// Leaf-stride pages: each page lives on its own leaf, so eviction
	// empties and detaches leaves continuously.
	data := pattern(ps, 7)
	for i := 0; i < 96; i++ {
		h.write(t, fmt.Sprintf("/leak%d", i%4), pattern((i%4+1)*64*ps, byte(i%4)))
	}

	h.runBlocks(t, 0, 8, func(b *gpu.Block) error {
		got := make([]byte, len(data))
		for round := 0; round < 6; round++ {
			path := fmt.Sprintf("/leak%d", (b.Idx+round)%4)
			fd, err := fs.Open(b, path, O_RDONLY)
			if err != nil {
				return err
			}
			for i := 0; i < (b.Idx+round)%4+1; i++ {
				if _, err := fs.Read(b, fd, got, int64(i*64*ps)); err != nil {
					fs.Close(b, fd)
					return err
				}
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
		}
		return nil
	})

	var trees []*fileCache
	fs.ft.each(func(fc *fileCache, _ string, _ int, _ *file) { trees = append(trees, fc) })
	for _, fc := range trees {
		dom := fc.tree.EpochDomain()
		if !dom.Quiesce() {
			t.Errorf("tree %s: epoch domain did not quiesce (retired=%d freed=%d)",
				fc.path, dom.Retired(), dom.Freed())
		}
	}
}
