package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
)

// TestMultiPageReadIsVectored: the pages of one gread past the first ride
// coalesced vectored RPCs bounded by maxHostIO, not one RPC per page.
func TestMultiPageReadIsVectored(t *testing.T) {
	const pages = 16
	opt := defaultOpt()
	opt.PageSize = 4 << 10
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	want := pattern(pages*int(opt.PageSize), 4)
	h.write(t, "/f", want)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		reads := h.server.Requests(rpc.OpReadPages)
		got := make([]byte, len(want))
		if n, err := fs.Read(b, fd, got, 0); err != nil || n != len(got) || !bytes.Equal(got, want) {
			t.Errorf("read: n=%d err=%v equal=%v", n, err, bytes.Equal(got, want))
		}
		batch := (pages - 1) * opt.PageSize
		limit := (batch+maxHostIO-1)/maxHostIO + 1
		if got := h.server.Requests(rpc.OpReadPages) - reads; got > limit {
			t.Errorf("%d-page gread issued %d read RPCs, want at most %d (one fault + %d bytes in %d-byte spans)",
				pages, got, limit, batch, maxHostIO)
		}
		return fs.Close(b, fd)
	})
}

// TestReadEntryPointsAgree: gread and Mapping.Read are one page walk and one
// copy-out, so over the same extent — cold, then resident — they return the
// same bytes and leave the same CacheStats, and in the extended system they
// count one in-place read per page served.
func TestReadEntryPointsAgree(t *testing.T) {
	const pages = 8
	type readFn func(fs *FS, b *gpu.Block, fd int, dst []byte) error
	ps := defaultOpt().PageSize
	paths := []struct {
		name string
		read readFn
	}{
		{"gread", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			n, err := fs.Read(b, fd, dst, 0)
			if err == nil && n != len(dst) {
				err = fmt.Errorf("gread returned %d of %d bytes", n, len(dst))
			}
			return err
		}},
		{"mmap", func(fs *FS, b *gpu.Block, fd int, dst []byte) error {
			for off := int64(0); off < int64(len(dst)); off += ps {
				m, err := fs.Mmap(b, fd, off, ps)
				if err != nil {
					return err
				}
				if n, err := m.Read(b, 0, dst[off:off+ps]); err != nil || int64(n) != ps {
					return fmt.Errorf("mapping read at %d: n=%d err=%v", off, n, err)
				}
				if err := m.Munmap(b); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	// zerocopy=true is the extended system, zerocopy=false the prototype.
	for _, opt := range []Options{defaultOpt(), prototypeOpt()} {
		zeroCopy := !opt.Prototype
		var base CacheStats
		for i, p := range paths {
			t.Run(fmt.Sprintf("zerocopy=%v/%s", zeroCopy, p.name), func(t *testing.T) {
				h := newHarness(t, 1, opt)
				fs := h.fss[0]
				want := pattern(pages*int(ps), 9)
				h.write(t, "/f", want)
				h.run(t, 0, func(b *gpu.Block) error {
					fd, err := fs.Open(b, "/f", O_RDONLY)
					if err != nil {
						return err
					}
					for _, pass := range []string{"cold", "resident"} {
						got := make([]byte, len(want))
						if err := p.read(fs, b, fd, got); err != nil {
							return fmt.Errorf("%s: %w", pass, err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s pass returned bytes that differ from the file", pass)
						}
					}
					return fs.Close(b, fd)
				})
				wantInPlace := int64(0)
				if zeroCopy {
					wantInPlace = 2 * pages
				}
				if got := fs.ZeroCopyReads(); got != wantInPlace {
					t.Errorf("ZeroCopyReads = %d after serving %d pages, want %d", got, 2*pages, wantInPlace)
				}
				if cs := fs.CacheStats(); i == 0 {
					base = cs
				} else if cs != base {
					t.Errorf("CacheStats %+v differ from gread's %+v", cs, base)
				}
			})
		}
	}
}

// TestReadAtEOFIsFree: a gread that starts at or past end of file returns
// zero bytes and charges the block nothing.
func TestReadAtEOFIsFree(t *testing.T) {
	opt := defaultOpt()
	costRig(t, opt, 1, func(h *harness, b *gpu.Block, fd int) {
		fs := h.fss[0]
		buf := make([]byte, 2*64)
		for _, off := range []int64{opt.PageSize, 3 * opt.PageSize} {
			cost := elapsed(b, func() {
				if n, err := fs.Read(b, fd, buf, off); n != 0 || err != nil {
					t.Errorf("gread at %d: n=%d err=%v", off, n, err)
				}
			})
			if cost != 0 {
				t.Errorf("gread at %d (EOF %d) cost %v", off, opt.PageSize, cost)
			}
		}
	})
}
