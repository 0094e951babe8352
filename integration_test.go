package gpufs_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"gpufs"
	"gpufs/internal/workloads"
)

const itScale = 1.0 / 128

func newSys(t *testing.T) *gpufs.System {
	t.Helper()
	sys, err := gpufs.NewSystem(gpufs.ScaledConfig(itScale))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidationSurfaced(t *testing.T) {
	cfg := gpufs.ScaledConfig(itScale)
	cfg.PageSize = 12345 // not a power of two
	if _, err := gpufs.NewSystem(cfg); err == nil {
		t.Fatalf("invalid config accepted")
	}
	cfg = gpufs.ScaledConfig(itScale)
	cfg.NumGPUs = 0
	if _, err := gpufs.NewSystem(cfg); err == nil {
		t.Fatalf("zero GPUs accepted")
	}
}

// TestCrossGPUConsistencyProtocol exercises the full locality-optimized
// consistency story of §3.1: a writer GPU's updates become visible to a
// reader GPU only after the writer synchronizes AND the reader re-opens.
func TestCrossGPUConsistencyProtocol(t *testing.T) {
	sys := newSys(t)
	orig := bytes.Repeat([]byte{0xAA}, 32<<10)
	if err := sys.WriteHostFile("/shared.bin", orig); err != nil {
		t.Fatal(err)
	}

	// GPU 1 reads and caches the file.
	readFirst := func() byte {
		var got byte
		_, err := sys.GPU(1).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
			fd, err := c.Gopen("/shared.bin", gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			defer c.Gclose(fd)
			buf := make([]byte, 1)
			if _, err := c.Gread(fd, buf, 0); err != nil {
				return err
			}
			got = buf[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if b := readFirst(); b != 0xAA {
		t.Fatalf("initial read: %x", b)
	}

	// GPU 0 writes and synchronizes.
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/shared.bin", gpufs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := c.Gwrite(fd, []byte{0xBB}, 0); err != nil {
			return err
		}
		if err := c.Gfsync(fd); err != nil {
			return err
		}
		return c.Gclose(fd)
	})
	if err != nil {
		t.Fatal(err)
	}

	// GPU 1 re-opens: lazy invalidation discovers the change.
	if b := readFirst(); b != 0xBB {
		t.Fatalf("after writer sync + reader reopen, read %x, want BB", b)
	}
}

func TestSingleWriterAcrossGPUsPublicAPI(t *testing.T) {
	sys := newSys(t)
	if err := sys.WriteHostFile("/excl.bin", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		if _, err := c.Gopen("/excl.bin", gpufs.O_RDWR); err != nil {
			return err
		}
		// While GPU 0 holds the write open, GPU 1 is rejected.
		_, err := sys.GPU(1).Launch(0, 1, 64, func(c2 *gpufs.BlockCtx) error {
			_, err := c2.Gopen("/excl.bin", gpufs.O_RDWR)
			errCh <- err
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatalf("second GPU writer was admitted")
	}
}

func TestWriteSharedMergePublicAPI(t *testing.T) {
	// O_GWRSHARED: both GPUs write halves of one falsely-shared page.
	sys := newSys(t)
	ps := sys.Config().PageSize
	if err := sys.WriteHostFile("/merge.bin", make([]byte, ps)); err != nil {
		t.Fatal(err)
	}

	write := func(g int, off int64, val byte) {
		_, err := sys.GPU(g).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
			fd, err := c.Gopen("/merge.bin", gpufs.O_RDWR|gpufs.O_GWRSHARED)
			if err != nil {
				return err
			}
			data := bytes.Repeat([]byte{val}, int(ps/2))
			if _, err := c.Gwrite(fd, data, off); err != nil {
				return err
			}
			if err := c.Gfsync(fd); err != nil {
				return err
			}
			return c.Gclose(fd)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write(0, 0, 0x11)
	write(1, ps/2, 0x22)

	got, err := sys.ReadHostFile("/merge.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < ps/2; i++ {
		if got[i] != 0x11 {
			t.Fatalf("GPU 0's bytes reverted at %d", i)
		}
	}
	for i := ps / 2; i < ps; i++ {
		if got[i] != 0x22 {
			t.Fatalf("GPU 1's bytes reverted at %d", i)
		}
	}
}

func TestKernelFaultSurfacesAndSticks(t *testing.T) {
	sys := newSys(t)
	_, err := sys.GPU(0).Launch(0, 4, 64, func(c *gpufs.BlockCtx) error {
		if c.Idx == 2 {
			_, err := c.Gopen("/does-not-exist", gpufs.O_RDONLY)
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatalf("fault not surfaced")
	}
	if _, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error { return nil }); err == nil {
		t.Fatalf("faulted device accepted a new kernel (the paper: failures may require a GPU restart)")
	}
	sys.GPU(0).Device().ResetFault()
	if _, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error { return nil }); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestGmmapPublicAPI(t *testing.T) {
	sys := newSys(t)
	want := make([]byte, 64<<10)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := sys.WriteHostFile("/m.bin", want); err != nil {
		t.Fatal(err)
	}
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/m.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		// Map the whole file page by page (prefix semantics).
		var off int64
		for off < int64(len(want)) {
			m, err := c.Gmmap(fd, off, int64(len(want))-off)
			if err != nil {
				return err
			}
			if !bytes.Equal(m.Data, want[off:off+int64(len(m.Data))]) {
				t.Errorf("mapping at %d content mismatch", off)
			}
			off += int64(len(m.Data))
			if err := c.Gmunmap(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGfstatAndGftruncatePublicAPI(t *testing.T) {
	sys := newSys(t)
	if err := sys.WriteHostFile("/t.bin", make([]byte, 10000)); err != nil {
		t.Fatal(err)
	}
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/t.bin", gpufs.O_RDWR)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		info, err := c.Gfstat(fd)
		if err != nil {
			return err
		}
		if info.Size != 10000 {
			t.Errorf("size %d", info.Size)
		}
		if err := c.Gftruncate(fd, 100); err != nil {
			return err
		}
		info, _ = c.Gfstat(fd)
		if info.Size != 100 {
			t.Errorf("size after truncate %d", info.Size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.ReadHostFile("/t.bin"); len(got) != 100 {
		t.Fatalf("host size %d", len(got))
	}
}

func TestGunlinkPublicAPI(t *testing.T) {
	sys := newSys(t)
	if err := sys.WriteHostFile("/u.bin", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		return c.Gunlink("/u.bin")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReadHostFile("/u.bin"); err == nil {
		t.Fatalf("file survived gunlink")
	}
}

func TestConcurrentKernelsAcrossGPUs(t *testing.T) {
	// All four GPUs hammer the shared daemon at once; results must be
	// correct and each GPU's cache independent.
	sys := newSys(t)
	want := make([]byte, 128<<10)
	for i := range want {
		want[i] = byte(i)
	}
	if err := sys.WriteHostFile("/all.bin", want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, sys.NumGPUs())
	for g := 0; g < sys.NumGPUs(); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = sys.GPU(g).Launch(0, 8, 64, func(c *gpufs.BlockCtx) error {
				fd, err := c.Gopen("/all.bin", gpufs.O_RDONLY)
				if err != nil {
					return err
				}
				defer c.Gclose(fd)
				got := make([]byte, 16<<10)
				off := int64(c.Idx) * int64(len(got))
				if _, err := c.Gread(fd, got, off); err != nil {
					return err
				}
				if !bytes.Equal(got, want[off:off+int64(len(got))]) {
					return errors.New("content mismatch")
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("GPU %d: %v", g, err)
		}
	}
}

func TestResetTimeClearsTimelines(t *testing.T) {
	sys := newSys(t)
	if err := sys.WriteHostFile("/r.bin", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	// A real kernel leaves every slot's timeline advanced.
	blocks := 2 * sys.GPU(0).Device().MaxResidentBlocks()
	_, err := sys.GPU(0).Launch(0, blocks, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/r.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 8<<10)
		_, err = c.Gread(fd, buf, int64(c.Idx)*int64(len(buf)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	trivial := func() gpufs.Time {
		end, err := sys.GPU(0).Launch(0, blocks, 64, func(c *gpufs.BlockCtx) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	before := trivial() // queues behind the real kernel's slot times
	sys.ResetTime()
	after := trivial() // fresh timelines: ends almost immediately
	if after >= before {
		t.Fatalf("ResetTime did not rewind timelines: trivial kernel ends at %v before reset, %v after", before, after)
	}
}

// TestShapeGrepGPUBeatsCPU is an end-to-end shape check kept cheap enough
// for the regular test suite (Table 4's direction, not its magnitude).
func TestShapeGrepGPUBeatsCPU(t *testing.T) {
	sys := newSys(t)
	cfg := sys.Config()
	dict := workloads.MakeDictionary(400)
	if err := sys.WriteHostFile("/g/dict", dict.Encode()); err != nil {
		t.Fatal(err)
	}
	tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
		Dir: "/g/src", NumFiles: 30, TotalBytes: 512 << 10,
		Text: workloads.TextSpec{Dict: dict, DictFraction: 0.4, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTime()
	gpu, err := workloads.GrepGPUfs(sys, 0, "/g/dict", tree.ListPath, "/g/out", cfg.GrepGPURate, 16, 128, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTime()
	cpu, err := workloads.GrepCPU(sys.Host(), dict, tree.Files, cfg.NumCPUCores, cfg.GrepCPURate)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Elapsed >= cpu.Elapsed {
		t.Fatalf("GPU (%v) should beat the 8-core CPU (%v)", gpu.Elapsed, cpu.Elapsed)
	}
}

func TestTracingPublicAPI(t *testing.T) {
	sys := newSys(t)
	tr := sys.EnableTracing(1024)
	if sys.Tracer() != tr {
		t.Fatalf("tracer accessor")
	}
	if err := sys.WriteHostFile("/tr.bin", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	_, err := sys.GPU(0).Launch(0, 2, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/tr.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 16<<10)
		_, err = c.Gread(fd, buf, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := tr.Snapshot()
	if len(evs) == 0 {
		t.Fatalf("no events recorded")
	}
	ops := map[string]bool{}
	for _, e := range evs {
		ops[e.Op.String()] = true
		if e.End < e.Start {
			t.Fatalf("event with negative span: %+v", e)
		}
		// Calls that name their file by descriptor still report its path
		// (gclose resolves it before the descriptor dies).
		if op := e.Op.String(); e.Path != "/tr.bin" && (op == "gread" || op == "gclose") {
			t.Fatalf("traced %s carries path %q, want /tr.bin", op, e.Path)
		}
	}
	for _, want := range []string{"gopen", "gread", "gclose"} {
		if !ops[want] {
			t.Fatalf("missing traced op %q (have %v)", want, ops)
		}
	}
}

func TestHostFileHelpers(t *testing.T) {
	sys := newSys(t)
	// Deeply nested path: parents are created.
	if err := sys.WriteHostFile("/a/b/c/d/file.bin", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadHostFile("/a/b/c/d/file.bin")
	if err != nil || string(got) != "deep" {
		t.Fatalf("round trip: %q %v", got, err)
	}
	// Root-level file.
	if err := sys.WriteHostFile("/top.bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Missing file.
	if _, err := sys.ReadHostFile("/missing"); err == nil {
		t.Fatalf("missing file read succeeded")
	}
	if sys.NumGPUs() != sys.Config().NumGPUs {
		t.Fatalf("NumGPUs mismatch")
	}
	if sys.Server() == nil || sys.Bus() == nil || sys.Host() == nil || sys.HostClock() == nil {
		t.Fatalf("accessor returned nil")
	}
	sys.DropHostCaches()
	if sys.Host().CacheResident() != 0 {
		t.Fatalf("drop caches")
	}
}

func TestResetTimeClearsFrameReadyAt(t *testing.T) {
	// Regression: a cache hit after ResetTime must not drag the reader
	// back onto the pre-reset timeline through the frame's transfer
	// timestamp.
	sys := newSys(t)
	if err := sys.WriteHostFile("/ra.bin", make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	read := func() gpufs.Time {
		end, err := sys.GPU(0).Launch(0, 4, 64, func(c *gpufs.BlockCtx) error {
			fd, err := c.Gopen("/ra.bin", gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			defer c.Gclose(fd)
			buf := make([]byte, 64<<10)
			_, err = c.Gread(fd, buf, int64(c.Idx)*int64(len(buf)))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	cold := read() // faults pages in, stamping ReadyAt
	sys.ResetTime()
	warm := read() // pure cache hits on a fresh timeline
	if warm >= cold {
		t.Fatalf("post-reset cache hits (%v) dragged back to the old timeline (cold %v)", warm, cold)
	}
}

func TestGPURestartLosesUnsyncedState(t *testing.T) {
	sys := newSys(t)
	if err := sys.WriteHostFile("/crash.bin", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}

	// Write two regions; sync only the first; then fault the kernel.
	_, err := sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/crash.bin", gpufs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := c.Gwrite(fd, bytes.Repeat([]byte{0xAA}, 1024), 0); err != nil {
			return err
		}
		if err := c.GfsyncRange(fd, 0, 1024); err != nil {
			return err
		}
		if _, err := c.Gwrite(fd, bytes.Repeat([]byte{0xBB}, 1024), 32<<10); err != nil {
			return err
		}
		return errors.New("simulated invalid memory access")
	})
	if err == nil {
		t.Fatalf("fault not reported")
	}

	sys.GPU(0).Restart()

	// The restart reclaimed every frame (nothing leaked with the lost
	// state).
	if fs := sys.GPU(0).FS(); fs.Cache().FreeFrames() != fs.Cache().NumFrames() {
		t.Fatalf("restart leaked frames: %d free of %d",
			fs.Cache().FreeFrames(), fs.Cache().NumFrames())
	}

	// The device accepts kernels again and sees the HOST's state: the
	// synced region survived, the un-synced region is gone.
	var first, second byte
	_, err = sys.GPU(0).Launch(0, 1, 64, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/crash.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		buf := make([]byte, 1)
		if _, err := c.Gread(fd, buf, 0); err != nil {
			return err
		}
		first = buf[0]
		if _, err := c.Gread(fd, buf, 32<<10); err != nil {
			return err
		}
		second = buf[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0xAA {
		t.Fatalf("synced data lost across restart: %x", first)
	}
	if second != 0 {
		t.Fatalf("un-synced data survived the restart: %x", second)
	}
}
