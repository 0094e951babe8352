package gpufs

import (
	"bytes"
	"runtime"
	"testing"
)

func testSystem(t *testing.T, scale float64) *System {
	t.Helper()
	cfg := ScaledConfig(scale)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// TestNewSystemBacksOnlyTheBufferCache: a new machine allocates each GPU's
// buffer cache and little else. Its device memory is three times the cache
// (the C2075's 6 GB against 2 GB), but the arena backs only what is
// allocated from it.
func TestNewSystemBacksOnlyTheBufferCache(t *testing.T) {
	cfg := ScaledConfig(1.0 / 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewSystem(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(cfg.NumGPUs)*uint64(cfg.BufferCacheBytes+1<<20) + 8<<20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("NewSystem allocated %d B for %d GPUs with %d B buffer caches, want <= %d",
			got, cfg.NumGPUs, cfg.BufferCacheBytes, limit)
	}
}

func TestSmokeReadBack(t *testing.T) {
	sys := testSystem(t, 1.0/64)

	content := make([]byte, 1<<20)
	for i := range content {
		content[i] = byte(i * 7)
	}
	if err := sys.WriteHostFile("/data/in.bin", content); err != nil {
		t.Fatalf("WriteHostFile: %v", err)
	}

	got := make([]byte, len(content))
	end, err := sys.GPU(0).Launch(0, 8, 256, func(c *BlockCtx) error {
		fd, err := c.Gopen("/data/in.bin", O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		chunk := len(content) / c.Blocks
		off := c.Idx * chunk
		_, err = c.Gread(fd, got[off:off+chunk], int64(off))
		return err
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if end <= 0 {
		t.Fatalf("kernel completed at non-positive virtual time %v", end)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("read-back mismatch")
	}
}

func TestSmokeWriteSync(t *testing.T) {
	sys := testSystem(t, 1.0/64)

	out := make([]byte, 256<<10)
	for i := range out {
		out[i] = byte(i ^ 0x5a)
	}
	_, err := sys.GPU(0).Launch(0, 4, 256, func(c *BlockCtx) error {
		fd, err := c.Gopen("/out.bin", O_GWRONCE)
		if err != nil {
			return err
		}
		chunk := len(out) / c.Blocks
		off := c.Idx * chunk
		if _, err := c.Gwrite(fd, out[off:off+chunk], int64(off)); err != nil {
			return err
		}
		if err := c.Gfsync(fd); err != nil {
			return err
		}
		return c.Gclose(fd)
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}

	got, err := sys.ReadHostFile("/out.bin")
	if err != nil {
		t.Fatalf("ReadHostFile: %v", err)
	}
	if len(got) != len(out) {
		t.Fatalf("host file size %d, want %d", len(got), len(out))
	}
	if !bytes.Equal(got, out) {
		t.Fatalf("write-back mismatch")
	}
}

// TestSmokeWriteSyncRaced hammers the TestSmokeWriteSync shape — several
// blocks writing disjoint chunks of ONE buffer-cache page, each gfsyncing
// its own chunk — where gfsync used to skip any page referenced by a
// concurrent access. A block whose gfsync raced another block's in-flight
// write-back would return success while its bytes silently stayed dirty
// in the cache; gfsync now writes back through transient references
// (only gmmap'd pages are exempt), so every chunk must reach the host.
func TestSmokeWriteSyncRaced(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		sys := testSystem(t, 1.0/64)
		out := make([]byte, 256<<10)
		for i := range out {
			out[i] = byte(i ^ 0x5a)
		}
		_, err := sys.GPU(0).Launch(0, 4, 256, func(c *BlockCtx) error {
			fd, err := c.Gopen("/out.bin", O_GWRONCE)
			if err != nil {
				return err
			}
			chunk := len(out) / c.Blocks
			off := c.Idx * chunk
			if _, err := c.Gwrite(fd, out[off:off+chunk], int64(off)); err != nil {
				return err
			}
			if err := c.Gfsync(fd); err != nil {
				return err
			}
			return c.Gclose(fd)
		})
		if err != nil {
			t.Fatalf("iter %d: Launch: %v", iter, err)
		}
		got, err := sys.ReadHostFile("/out.bin")
		if err != nil {
			t.Fatalf("iter %d: ReadHostFile: %v", iter, err)
		}
		if !bytes.Equal(got, out) {
			lo := -1
			for i := range got {
				if i >= len(out) || got[i] != out[i] {
					lo = i
					break
				}
			}
			t.Fatalf("iter %d: write-back mismatch from byte %d: a gfsync dropped a concurrently-referenced page", iter, lo)
		}
	}
}
