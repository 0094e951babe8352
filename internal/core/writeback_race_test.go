package core

import (
	"bytes"
	"testing"

	"gpufs/internal/gpu"
)

// TestConcurrentFsyncKeepsHostCurrent is the regression test for the lost
// update under concurrent whole-file gfsync (benchmark/KNOWN_ISSUES.md #1).
// Writer blocks own private slices of ONE page and gfsync the whole file
// after every write, so every write-back ships every writer's slice. Without
// serialisation a block can snapshot the page, lose the CPU, and land its
// RPC after a neighbour wrote, snapshotted newer bytes and completed — the
// older snapshot then sits on the host under a clean page, and nothing
// repairs it. The check is the benchmark's: once every block's gfsync and
// gclose have returned, the host holds every writer's last pattern. Only a
// race in a kernel's last passes survives to be seen, hence many short
// kernels.
func TestConcurrentFsyncKeepsHostCurrent(t *testing.T) {
	const (
		writers = 8 // the harness device runs 8 blocks at once
		passes  = 2
		rounds  = 200
	)
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	slice := int(opt.PageSize) / writers
	h.write(t, "/shared", make([]byte, opt.PageSize))

	for round := 0; round < rounds && !t.Failed(); round++ {
		// Rewind the device so every slot is free at once and the eight
		// blocks run side by side, not in virtual-time turns.
		h.devs[0].ResetTime()
		h.runBlocks(t, 0, writers, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/shared", O_RDWR)
			if err != nil {
				return err
			}
			for p := 0; p < passes; p++ {
				want := bytes.Repeat([]byte{byte(round*passes + p + b.Idx + 1)}, slice)
				if _, err := fs.Write(b, fd, want, int64(b.Idx*slice)); err != nil {
					return err
				}
				if err := fs.Fsync(b, fd); err != nil {
					return err
				}
			}
			return fs.Close(b, fd)
		})
		host := h.read(t, "/shared")
		for w := 0; w < writers; w++ {
			want := bytes.Repeat([]byte{byte(round*passes + passes + w)}, slice)
			if got := host[w*slice : (w+1)*slice]; !bytes.Equal(got, want) {
				t.Errorf("round %d: after the final gclose writer %d's slice holds %#x on the host, want its last pattern %#x",
					round, w, got[0], want[0])
			}
		}
	}
}
