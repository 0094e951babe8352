// End-to-end tests for open-ahead, the one relaxed file call beyond the
// paper's API.
package gpufs_test

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/metrics"
	"gpufs/internal/workloads"
)

func syscallTestSystem(t *testing.T) *gpufs.System {
	t.Helper()
	cfg := gpufs.ScaledConfig(1.0 / 256)
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGopenAheadPipelinesOpens checks open-ahead semantics end to end:
// futures joined by Gwait return descriptors that read correct bytes, a
// warm-path future (file already open on the GPU) falls back cleanly, and
// pipelining K cold opens ahead of their reads beats the strong serial
// open chain in virtual time on the same corpus.
func TestGopenAheadPipelinesOpens(t *testing.T) {
	const (
		files     = 8
		fileBytes = 2048
	)
	stage := func(sys *gpufs.System) [][]byte {
		contents := make([][]byte, files)
		for i := range contents {
			data := bytes.Repeat([]byte{byte('a' + i)}, fileBytes)
			contents[i] = data
			if err := sys.WriteHostFile(fmt.Sprintf("/oa/f%d.bin", i), data); err != nil {
				t.Fatal(err)
			}
		}
		return contents
	}
	readAll := func(c *gpufs.BlockCtx, fd int, want []byte) error {
		buf := make([]byte, fileBytes)
		if _, err := c.Gread(fd, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("read bytes differ")
		}
		return c.Gclose(fd)
	}

	// Strong chain: open, read, close each file in turn.
	strongSys := syscallTestSystem(t)
	contents := stage(strongSys)
	strongEnd, err := strongSys.GPU(0).Launch(0, 1, 32, func(c *gpufs.BlockCtx) error {
		if c.Idx != 0 {
			return nil
		}
		for i := 0; i < files; i++ {
			fd, err := c.Gopen(fmt.Sprintf("/oa/f%d.bin", i), gpufs.O_RDONLY)
			if err != nil {
				return err
			}
			if err := readAll(c, fd, contents[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("strong chain: %v", err)
	}

	// Pipelined chain: issue every open ahead, then join and read.
	aheadSys := syscallTestSystem(t)
	contents = stage(aheadSys)
	aheadEnd, err := aheadSys.GPU(0).Launch(0, 1, 32, func(c *gpufs.BlockCtx) error {
		if c.Idx != 0 {
			return nil
		}
		futs := make([]*gpufs.OpenFuture, files)
		for i := range futs {
			futs[i] = c.GopenAhead(fmt.Sprintf("/oa/f%d.bin", i), gpufs.O_RDONLY)
		}
		for i, of := range futs {
			fd, err := c.Gwait(of)
			if err != nil {
				return err
			}
			if err := readAll(c, fd, contents[i]); err != nil {
				return err
			}
		}
		// Warm path: the file's cache entry survives gclose, so a second
		// open-ahead must fall back to the plain open and still work.
		fd, err := c.Gwait(c.GopenAhead("/oa/f0.bin", gpufs.O_RDONLY))
		if err != nil {
			return err
		}
		return readAll(c, fd, contents[0])
	})
	if err != nil {
		t.Fatalf("open-ahead chain: %v", err)
	}
	if aheadEnd >= strongEnd {
		t.Fatalf("open-ahead chain (%v) not faster than the strong chain (%v) despite the extra warm open", aheadEnd, strongEnd)
	}
}

// TestDefaultOrderingIsStrong pins who chooses a relaxed call: the issuing
// code, never the machine. Grep with an open-ahead window of 0 is the
// prototype's loop, every gopen blocking its lane; a window of 4 issues
// relaxed gopens on the same default system.
func TestDefaultOrderingIsStrong(t *testing.T) {
	relaxedOpens := func(window int) int64 {
		reg := metrics.New()
		sys, err := gpufs.NewSystemWithMetrics(gpufs.ScaledConfig(1.0/256), reg)
		if err != nil {
			t.Fatal(err)
		}
		dict := workloads.MakeDictionary(8)
		if err := sys.WriteHostFile("/g/dict", dict.Encode()); err != nil {
			t.Fatal(err)
		}
		tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
			Dir: "/g/src", NumFiles: 16, TotalBytes: 16 << 10,
			Text: workloads.TextSpec{Dict: dict, DictFraction: 0.4, Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sys.Config()
		if _, err := workloads.GrepGPUfs(sys, 0, "/g/dict", tree.ListPath, "/g/out", cfg.GrepGPURate, 1, 64, 0, window); err != nil {
			t.Fatal(err)
		}
		return reg.DurationHistogram("gpufs_sys_latency_seconds", "gpu", "0", "op", "gopen", "ordering", "relaxed").Count()
	}
	if n := relaxedOpens(0); n != 0 {
		t.Errorf("grep with no open-ahead window issued %d relaxed gopens, want 0", n)
	}
	if n := relaxedOpens(4); n == 0 {
		t.Errorf("grep with an open-ahead window of 4 issued no relaxed gopen")
	}
}
