package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/gpu"
)

// Metamorphic read-path tests: the same extent fetched through different
// call shapes — one vectored whole-file gread (whose multi-page batching
// pipelines the later pages' fetches), multi-page chunked greads,
// page-at-a-time greads, and odd-sized chunks that straddle page
// boundaries — must yield identical bytes under every read-ahead policy
// (off, adaptive). With read-ahead off the post-run CacheStats
// must also be identical across shapes: multi-page gread batching is
// known-needed pipelining, not speculation, so it must never leak into the
// prefetch counters. Finally, every (shape, policy) pair must be
// deterministic: two fresh runs agree on bytes and CacheStats.

// readShape reads the whole file into dst using one particular call shape.
type readShape struct {
	name string
	read func(fs *FS, b *gpu.Block, fd int, dst []byte) error
}

func chunkedRead(fs *FS, b *gpu.Block, fd int, dst []byte, chunk int) error {
	for off := 0; off < len(dst); off += chunk {
		n := chunk
		if off+n > len(dst) {
			n = len(dst) - off
		}
		got, err := fs.Read(b, fd, dst[off:off+n], int64(off))
		if err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("short read at %d: %d of %d", off, got, n)
		}
	}
	return nil
}

func readShapes(pageSize int) []readShape {
	return []readShape{
		{"whole", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			return chunkedRead(fs, b, fd, dst, len(dst))
		}},
		{"three-pages", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			return chunkedRead(fs, b, fd, dst, 3*pageSize)
		}},
		{"single-page", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			return chunkedRead(fs, b, fd, dst, pageSize)
		}},
		{"odd-chunks", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			return chunkedRead(fs, b, fd, dst, 3333)
		}},
	}
}

// readPolicy is one read-ahead configuration.
type readPolicy struct {
	name     string
	apply    func(*Options)
	specFree bool // no speculation: CacheStats must match across shapes
}

var readPolicies = []readPolicy{
	{"off", func(o *Options) {}, true},
	{"adaptive", func(o *Options) { o.ReadAheadAdaptive = true }, false},
}

// runShape executes one (shape, policy) run on a fresh harness and returns
// the bytes read and the post-run CacheStats.
func runShape(t *testing.T, pol readPolicy, shape readShape, want []byte) ([]byte, CacheStats) {
	t.Helper()
	opt := defaultOpt()
	pol.apply(&opt)
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
	h.checkDirtyCounts(t)
	return got, fs.CacheStats()
}

func TestMetamorphicReadShapes(t *testing.T) {
	opt := defaultOpt()
	want := pattern(10*int(opt.PageSize)+777, 5) // ~10.05 pages
	shapes := readShapes(int(opt.PageSize))

	for _, pol := range readPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			var baseline CacheStats
			for si, shape := range shapes {
				got, cs := runShape(t, pol, shape, want)
				if !bytes.Equal(got, want) {
					t.Errorf("shape %s: bytes diverge", shape.name)
				}
				// Two fresh runs of the same shape must agree exactly.
				got2, cs2 := runShape(t, pol, shape, want)
				if !bytes.Equal(got, got2) {
					t.Errorf("shape %s: bytes differ between identical runs", shape.name)
				}
				if cs != cs2 {
					t.Errorf("shape %s: CacheStats differ between identical runs: %+v vs %+v", shape.name, cs, cs2)
				}
				if !pol.specFree {
					continue
				}
				// No read-ahead: batching is known-needed pipelining and
				// must not register as speculation, so every shape lands
				// on identical (all-zero prefetch) stats.
				if cs.PrefetchIssued != 0 {
					t.Errorf("shape %s: %d pages counted as prefetch with read-ahead off", shape.name, cs.PrefetchIssued)
				}
				if si == 0 {
					baseline = cs
				} else if cs != baseline {
					t.Errorf("shape %s: CacheStats %+v diverge from shape %s's %+v",
						shape.name, cs, shapes[0].name, baseline)
				}
			}
		})
	}
}
