package core

import (
	"bytes"
	"math/rand"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

// TestBatchedReadPipelinesFetches pins the multi-page gread fast path: a
// single read spanning N cold pages issues the trailing pages as
// speculative in-flight fetches, so it must return the same bytes as N
// sequential one-page greads but finish strictly earlier in virtual time
// (the page DMAs overlap instead of serializing on the ring round-trip).
func TestBatchedReadPipelinesFetches(t *testing.T) {
	opt := defaultOpt()
	pages := 8
	want := make([]byte, pages*int(opt.PageSize))
	rand.New(rand.NewSource(9)).Read(want)

	elapsed := func(batched bool) simtime.Duration {
		h := newHarness(t, 1, opt)
		h.write(t, "/big", want)
		fs := h.fss[0]
		var d simtime.Duration
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/big", O_RDONLY)
			if err != nil {
				return err
			}
			start := b.Clock.Now()
			got := make([]byte, len(want))
			if batched {
				if n, err := fs.Read(b, fd, got, 0); err != nil || n != len(want) {
					t.Errorf("batched read: n=%d err=%v", n, err)
				}
			} else {
				ps := int(opt.PageSize)
				for p := 0; p < pages; p++ {
					if n, err := fs.Read(b, fd, got[p*ps:(p+1)*ps], int64(p*ps)); err != nil || n != ps {
						t.Errorf("page %d read: n=%d err=%v", p, n, err)
					}
				}
			}
			d = b.Clock.Now().Sub(start)
			if !bytes.Equal(got, want) {
				t.Errorf("content mismatch (batched=%v)", batched)
			}
			return fs.Close(b, fd)
		})
		return d
	}

	serial, pipelined := elapsed(false), elapsed(true)
	if pipelined >= serial {
		t.Fatalf("batched 8-page read took %v, not faster than %v for 8 sequential reads",
			pipelined, serial)
	}
}

// TestBatchedReadRespectsCachePressure pins the speculative-fetch budget:
// with the cache nearly full, a wide read must not evict resident pages to
// make room for speculation — it still returns correct bytes, just without
// the pipelining headroom.
func TestBatchedReadRespectsCachePressure(t *testing.T) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 4 * opt.PageSize // 4 frames
	pages := 8
	want := make([]byte, pages*int(opt.PageSize))
	rand.New(rand.NewSource(10)).Read(want)

	h := newHarness(t, 1, opt)
	h.write(t, "/big", want)
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/big", O_RDONLY)
		if err != nil {
			return err
		}
		got := make([]byte, len(want))
		if n, err := fs.Read(b, fd, got, 0); err != nil || n != len(want) {
			t.Errorf("read under pressure: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("content mismatch under cache pressure")
		}
		return fs.Close(b, fd)
	})
}
