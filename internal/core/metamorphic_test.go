package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
)

// Metamorphic read-path tests: the same extent fetched through different
// call shapes — one vectored whole-file gread (whose multi-page batching
// pipelines the later pages' fetches), multi-page chunked greads,
// page-at-a-time greads, and odd-sized chunks that straddle page
// boundaries — must yield identical bytes under every read-ahead policy
// (off: the prototype; adaptive: the extended system). With read-ahead off
// the post-run CacheStats
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

// readPolicy is one read-ahead policy: the preset that has it.
type readPolicy struct {
	name     string
	opt      func() Options
	specFree bool // no speculation: CacheStats must match across shapes
}

var readPolicies = []readPolicy{
	{"off", prototypeOpt, true},
	{"adaptive", defaultOpt, false},
}

// runShape executes one (shape, policy) run on a fresh harness and returns
// the bytes read and the post-run CacheStats.
func runShape(t *testing.T, pol readPolicy, shape readShape, want []byte) ([]byte, CacheStats) {
	t.Helper()
	h := newHarness(t, 1, pol.opt())
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

// Metamorphic write-path tests: the same bytes written through different
// call shapes — one gwrite of everything, page-aligned pages in file order
// and in reverse (each determines its whole page, so a page not resident is
// filled from the caller's bytes), and odd-sized chunks that straddle page
// boundaries (each page is fetched, then overwritten piecewise) — over a host
// file shorter than what is written, so the later pages reach or lie past end
// of file, must leave the same view on the GPU and, after gfsync, the same
// bytes on the host, whether the cache holds the file or evicts it several
// times over. The shapes differ in what they cost, not in what they mean: the
// page-aligned ones must not read a page from the host when nothing is evicted.

// writeShape writes src at offset 0 using one particular call shape.
type writeShape struct {
	name string
	// aligned says every gwrite of the shape covers whole pages from their
	// boundaries (or the file's tail from one).
	aligned bool
	write   func(fs *FS, b *gpu.Block, fd int, src []byte) error
}

func chunkedWrite(fs *FS, b *gpu.Block, fd int, src []byte, offs []int, chunk int) error {
	for _, off := range offs {
		n := min(chunk, len(src)-off)
		if got, err := fs.Write(b, fd, src[off:off+n], int64(off)); err != nil || got != n {
			return fmt.Errorf("write at %d: %d of %d, err=%v", off, got, n, err)
		}
	}
	return nil
}

// chunkOffsets lists the offsets of size/chunk chunks, in file order or in
// reverse.
func chunkOffsets(size, chunk int, reverse bool) []int {
	var offs []int
	for off := 0; off < size; off += chunk {
		offs = append(offs, off)
	}
	if reverse {
		slices.Reverse(offs)
	}
	return offs
}

func writeShapes(pageSize int) []writeShape {
	chunked := func(chunk int, reverse bool) func(fs *FS, b *gpu.Block, fd int, src []byte) error {
		return func(fs *FS, b *gpu.Block, fd int, src []byte) error {
			return chunkedWrite(fs, b, fd, src, chunkOffsets(len(src), chunk, reverse), chunk)
		}
	}
	return []writeShape{
		{"whole", true, func(fs *FS, b *gpu.Block, fd int, src []byte) error {
			return chunkedWrite(fs, b, fd, src, []int{0}, len(src))
		}},
		{"single-page", true, chunked(pageSize, false)},
		{"single-page-reverse", true, chunked(pageSize, true)},
		{"odd-chunks", false, chunked(3333, false)},
	}
}

func TestMetamorphicWriteShapes(t *testing.T) {
	ps := int(defaultOpt().PageSize)
	want := pattern(10*ps+777, 5) // ~10.05 pages
	// The host file before: shorter, and different, and more than an open
	// carries, so the straddling writes fetch.
	initial := pattern(int(maxHostIO)+ps+100, 23)

	for _, frames := range []int{64, 6} {
		for _, shape := range writeShapes(ps) {
			t.Run(fmt.Sprintf("frames=%d/%s", frames, shape.name), func(t *testing.T) {
				run := func() (view []byte, reads int64, cs CacheStats) {
					opt := defaultOpt()
					opt.BufferCacheBytes = int64(frames * ps)
					h := newHarness(t, 1, opt)
					fs := h.fss[0]
					h.write(t, "/meta-w", initial)
					view = make([]byte, len(want)+ps)
					h.run(t, 0, func(b *gpu.Block) error {
						fd, err := fs.Open(b, "/meta-w", O_RDWR)
						if err != nil {
							return err
						}
						reads = h.server.Requests(rpc.OpReadPages)
						if err := shape.write(fs, b, fd, want); err != nil {
							return err
						}
						reads = h.server.Requests(rpc.OpReadPages) - reads
						n, err := fs.Read(b, fd, view, 0)
						if err != nil {
							return err
						}
						view = view[:n]
						if err := fs.Fsync(b, fd); err != nil {
							return err
						}
						return fs.Close(b, fd)
					})
					if host := h.read(t, "/meta-w"); !bytes.Equal(host, want) {
						t.Errorf("host content after gfsync diverges from the bytes written (%d bytes, want %d)", len(host), len(want))
					}
					h.checkDirtyCounts(t)
					return view, reads, fs.CacheStats()
				}
				view, reads, cs := run()
				if !bytes.Equal(view, want) {
					t.Errorf("the GPU's view after the writes diverges from the bytes written (%d bytes, want %d)", len(view), len(want))
				}
				if shape.aligned && frames > len(want)/ps+1 && reads != 0 {
					t.Errorf("page-aligned writes over a cache that holds the file fetched %d pages, want none", reads)
				}
				if !shape.aligned && reads == 0 {
					t.Errorf("writes that straddle pages fetched none: the shape no longer exercises the fetch path")
				}
				if view2, reads2, cs2 := run(); !bytes.Equal(view, view2) || reads != reads2 || cs != cs2 {
					t.Errorf("two identical runs differ: reads %d vs %d, CacheStats %+v vs %+v", reads, reads2, cs, cs2)
				}
			})
		}
	}
}
