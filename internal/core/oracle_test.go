package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs/internal/gpu"
)

// TestOracleRandomOps drives one GPU through long random sequences of
// GPUfs operations on a single file and checks every observation against a
// plain in-memory model of the consistency contract:
//
//   - gread sees the GPU's local view: host content as of the last
//     (in)validation, overlaid with every local gwrite since;
//   - gfsync makes the host equal to the local view;
//   - gclose/gopen round trips preserve the local view (closed file
//     table), even across eviction pressure (the cache is kept tiny);
//   - an external host write invalidates the cache at the next gopen,
//     resetting the local view to the host's content;
//   - gftruncate cuts both views.
func TestOracleRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runOracle(t, seed)
		})
	}
}

// writeExtent draws a gwrite's extent for the random-op generators (this
// oracle, the model schedules, the fault stress). Three draws in four are what
// the generators always drew: any offset below maxFile and up to maxLen bytes,
// which is nearly always a partial page. The fourth takes the edge such a draw
// essentially never does, the write that determines every byte of its page
// (publishOverwrite when the page is not resident): a whole page at its
// boundary or, from the boundary of the page the view's end lies in, a tail
// that reaches or passes that end. size is the file size as the GPU sees it,
// ps the page size.
func writeExtent(rng *rand.Rand, maxFile, maxLen, size, ps int) (off, n int) {
	switch rng.Intn(8) {
	case 0:
		off = rng.Intn(maxFile/ps) * ps
		return off, ps
	case 1:
		off = size / ps * ps
		lo, hi := max(size-off, 1), min(ps, maxFile-off)
		if lo <= hi {
			return off, lo + rng.Intn(hi-lo+1)
		}
	}
	off = rng.Intn(maxFile - 1)
	return off, rng.Intn(min(maxLen, maxFile-off)) + 1
}

func runOracle(t *testing.T, seed int64) {
	opt := defaultOpt()
	opt.BufferCacheBytes = 6 * opt.PageSize // constant eviction pressure
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	rng := rand.New(rand.NewSource(seed))

	const maxFile = 200 << 10 // ~12 pages, double the cache
	h.write(t, "/oracle", nil)

	model := []byte{} // the GPU's expected local view
	open := false
	var fd int

	ensureOpen := func(b *gpu.Block) error {
		if open {
			return nil
		}
		var err error
		fd, err = fs.Open(b, "/oracle", O_RDWR)
		if err != nil {
			return err
		}
		open = true
		return nil
	}

	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	defer func() {
		if t.Failed() {
			start := len(trace) - 60
			if start < 0 {
				start = 0
			}
			for _, l := range trace[start:] {
				t.Log(l)
			}
		}
	}()

	h.run(t, 0, func(b *gpu.Block) error {
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 35: // gwrite
				if err := ensureOpen(b); err != nil {
					return err
				}
				off, n := writeExtent(rng, maxFile, 8<<10, len(model), int(opt.PageSize))
				data := make([]byte, n)
				rng.Read(data)
				logf("%d: write off=%d n=%d", step, off, n)
				if _, err := fs.Write(b, fd, data, int64(off)); err != nil {
					return fmt.Errorf("step %d write: %w", step, err)
				}
				if off+n > len(model) {
					grown := make([]byte, off+n)
					copy(grown, model)
					model = grown
				}
				copy(model[off:], data)

			case op < 70: // gread
				if err := ensureOpen(b); err != nil {
					return err
				}
				if len(model) == 0 {
					continue
				}
				off := rng.Intn(len(model))
				n := rng.Intn(16<<10) + 1
				buf := make([]byte, n)
				logf("%d: read off=%d n=%d", step, off, n)
				got, err := fs.Read(b, fd, buf, int64(off))
				if err != nil {
					return fmt.Errorf("step %d read: %w", step, err)
				}
				want := len(model) - off
				if want > n {
					want = n
				}
				if got != want {
					return fmt.Errorf("step %d read length %d, want %d (off %d, size %d)",
						step, got, want, off, len(model))
				}
				if !bytes.Equal(buf[:got], model[off:off+got]) {
					return fmt.Errorf("step %d read content mismatch at %d+%d", step, off, got)
				}

			case op < 80: // gfsync: host catches up to the local view
				if err := ensureOpen(b); err != nil {
					return err
				}
				logf("%d: fsync", step)
				if err := fs.Fsync(b, fd); err != nil {
					return fmt.Errorf("step %d fsync: %w", step, err)
				}
				host := h.read(t, "/oracle")
				if !bytes.Equal(host, model) {
					i := 0
					for i < len(host) && i < len(model) && host[i] == model[i] {
						i++
					}
					return fmt.Errorf("step %d: host diverges after gfsync at byte %d (host=%x model=%x; page %d, inPage %d; sizes %d/%d)",
						step, i, host[i], model[i], i/(16<<10), i%(16<<10), len(host), len(model))
				}

			case op < 88: // gclose / later reopen (closed-table round trip)
				if open {
					logf("%d: close", step)
					if err := fs.Close(b, fd); err != nil {
						return fmt.Errorf("step %d close: %w", step, err)
					}
					open = false
				}

			case op < 94: // gftruncate
				if err := ensureOpen(b); err != nil {
					return err
				}
				size := rng.Intn(maxFile)
				logf("%d: truncate size=%d", step, size)
				if err := fs.Ftruncate(b, fd, int64(size)); err != nil {
					return fmt.Errorf("step %d truncate: %w", step, err)
				}
				if size < len(model) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}

			default: // external host write while the file is closed on the GPU
				if open {
					continue // host writers are locked out while the GPU writes
				}
				n := rng.Intn(maxFile/2) + 1
				data := make([]byte, n)
				rng.Read(data)
				logf("%d: external write n=%d", step, n)
				h.write(t, "/oracle", data)
				// The next gopen invalidates: local view = host content.
				model = append([]byte(nil), data...)
			}
		}
		if !open {
			if err := ensureOpen(b); err != nil {
				return err
			}
		}
		// Final sync: host and model must agree.
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})

	host := h.read(t, "/oracle")
	if !bytes.Equal(host, model) {
		t.Fatalf("final host content diverges from model: %d vs %d bytes", len(host), len(model))
	}
	if fs.Cache().Reclaimed() == 0 {
		t.Fatalf("oracle run exerted no eviction pressure; shrink the cache")
	}
	h.checkDirtyCounts(t)
}
