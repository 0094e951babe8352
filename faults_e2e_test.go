package gpufs

import (
	"bytes"
	"errors"
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/trace"
)

// TestFaultsEndToEnd drives the public API with a hostile fault schedule:
// the workload must stay correct, the retry machinery must be visibly
// exercised through Stats, and the tracer must record both the injected
// faults and the recovery retries.
func TestFaultsEndToEnd(t *testing.T) {
	sys := testSystem(t, 1.0/64)
	tr := sys.EnableTracing(1 << 14)
	sys.EnableFaults(FaultConfig{
		Seed:                1,
		RPCTransientProb:    0.25,
		RPCDropResponseProb: 0.10,
		RPCDupResponseProb:  0.10,
		HostShortReadProb:   0.30,
		DiskStallProb:       0.20,
		DMAStallProb:        0.20,
	})

	// Four pages, so three reach the host past the head the open carries.
	content := make([]byte, 1<<20)
	for i := range content {
		content[i] = byte(i*13 + 7)
	}
	sys.FaultInjector().SetEnabled(false)
	if err := sys.WriteHostFile("/data/in.bin", content); err != nil {
		t.Fatal(err)
	}
	sys.FaultInjector().SetEnabled(true)

	got := make([]byte, len(content))
	_, err := sys.GPU(0).Launch(0, 4, 256, func(c *BlockCtx) error {
		fd, err := c.Gopen("/data/in.bin", O_RDWR)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		chunk := len(content) / c.Blocks
		off := c.Idx * chunk
		if _, err := c.Gread(fd, got[off:off+chunk], int64(off)); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch under faults: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content corrupted by fault recovery")
	}

	st := sys.GPU(0).Stats()
	if st.FaultsInjected == 0 {
		t.Fatalf("injector installed but no faults recorded")
	}
	if st.RPCRetries == 0 {
		t.Fatalf("0.25 transient + 0.1 drop rates caused no retries")
	}

	var sawFault, sawRetry bool
	for _, ev := range tr.Snapshot() {
		switch ev.Op {
		case trace.OpFault:
			sawFault = true
		case trace.OpRetry:
			sawRetry = true
		}
	}
	if !sawFault || !sawRetry {
		t.Fatalf("trace missing fault/retry events (fault=%v retry=%v)", sawFault, sawRetry)
	}
}

// TestFaultsWriteErrorSurfacesAtFsync: a host-side write failure must come
// back through Gfsync as EIO — not crash the kernel, not vanish — and a
// later clean sync must deliver the data.
func TestFaultsWriteErrorSurfacesAtFsync(t *testing.T) {
	sys := testSystem(t, 1.0/64)
	inj := sys.EnableFaults(FaultConfig{Seed: 2, HostWriteEIOProb: 1.0})

	want := []byte("must reach the host eventually")
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *BlockCtx) error {
		fd, err := c.Gopen("/out.bin", O_RDWR|O_CREATE)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		// The write lands in the GPU buffer cache regardless of host state.
		if _, err := c.Gwrite(fd, want, 0); err != nil {
			return err
		}
		if err := c.Gfsync(fd); !errors.Is(err, hostfs.ErrIO) {
			t.Errorf("Gfsync under 100%% write EIO: %v, want ErrIO", err)
		}
		// Faults clear; the dirty page is still cached and syncs cleanly.
		inj.SetEnabled(false)
		if err := c.Gfsync(fd); err != nil {
			t.Errorf("clean Gfsync after recovery: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadHostFile("/out.bin")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("data lost after recovery: %q err=%v", got, err)
	}
}

// TestRestartUnderFaults: prefetch-heavy streaming under an active fault
// schedule, then a card restart through the public API. The buffer cache
// must come back empty (no leaked frames) and the GPU must keep working.
func TestRestartUnderFaults(t *testing.T) {
	cfg := ScaledConfig(1.0 / 64)
	cfg.PageSize = 16 << 10 // 32-page streams per block: the detector speculates
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableFaults(FaultConfig{
		Seed:              3,
		RPCTransientProb:  0.15,
		HostShortReadProb: 0.25,
		DMAStallProb:      0.15,
	})
	sys.FaultInjector().SetEnabled(false)
	content := make([]byte, 1<<20)
	for i := range content {
		content[i] = byte(i * 31)
	}
	if err := sys.WriteHostFile("/stream.bin", content); err != nil {
		t.Fatal(err)
	}
	sys.FaultInjector().SetEnabled(true)

	gpu := sys.GPU(0)
	_, err = gpu.Launch(0, 2, 128, func(c *BlockCtx) error {
		fd, err := c.Gopen("/stream.bin", O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 32<<10)
		chunk := len(content) / c.Blocks
		for off := c.Idx * chunk; off < (c.Idx+1)*chunk; off += len(buf) {
			if _, err := c.Gread(fd, buf, int64(off)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("streaming under faults: %v", err)
	}

	gpu.Restart()
	cache := gpu.FS().Cache()
	if free, num := cache.FreeFrames(), cache.NumFrames(); free != num {
		t.Fatalf("restart leaked %d frames (%d/%d free)", num-free, free, num)
	}

	// Still alive: re-read a slice after the restart, faults still on.
	_, err = gpu.Launch(0, 1, 64, func(c *BlockCtx) error {
		fd, err := c.Gopen("/stream.bin", O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 4096)
		if _, err := c.Gread(fd, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, content[:4096]) {
			t.Errorf("post-restart read corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("post-restart launch: %v", err)
	}
}
