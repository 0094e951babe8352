// End-to-end tests for the generic syscall surface of ISSUE 7 beyond the
// pipe family (covered by pipe_conformance_test.go): paginated directory
// enumeration, warp-granularity coalesced reads, and open-ahead.
package gpufs_test

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs"
	"gpufs/internal/metrics"
	"gpufs/internal/simtime"
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

// TestGreaddirPagination enumerates a staged directory in small pages
// from a kernel: every entry appears exactly once across pages, cookies
// chain until the -1 terminator, sizes and the directory bit are
// faithful, and a fresh enumeration is bit-identical.
func TestGreaddirPagination(t *testing.T) {
	sys := syscallTestSystem(t)
	const files = 10
	wantSize := make(map[string]int64, files)
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%02d.txt", i)
		data := bytes.Repeat([]byte{'a'}, 100+i*11)
		if err := sys.WriteHostFile("/dir/"+name, data); err != nil {
			t.Fatal(err)
		}
		wantSize[name] = int64(len(data))
	}
	if err := sys.WriteHostFile("/dir/sub/leaf.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}

	enumerate := func() ([]gpufs.Dirent, int) {
		var all []gpufs.Dirent
		pages := 0
		_, err := sys.GPU(0).Launch(0, 1, 32, func(c *gpufs.BlockCtx) error {
			if c.Idx != 0 {
				return nil
			}
			cookie := int64(0)
			for {
				ents, next, err := c.Greaddir("/dir", cookie, 3)
				if err != nil {
					return err
				}
				if len(ents) > 3 {
					return fmt.Errorf("page of %d entries exceeds max 3", len(ents))
				}
				all = append(all, ents...)
				pages++
				if next == -1 {
					return nil
				}
				if next <= cookie {
					return fmt.Errorf("cookie did not advance: %d -> %d", cookie, next)
				}
				cookie = next
			}
		})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		return all, pages
	}

	all, pages := enumerate()
	if len(all) != files+1 {
		t.Fatalf("enumerated %d entries, want %d", len(all), files+1)
	}
	if pages < 4 {
		t.Fatalf("enumeration took %d pages; max 3 per page over %d entries must paginate", pages, files+1)
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if seen[e.Name] {
			t.Fatalf("entry %q appeared twice across pages", e.Name)
		}
		seen[e.Name] = true
		if e.Name == "sub" {
			if !e.IsDir {
				t.Fatalf("subdirectory %q not flagged IsDir", e.Name)
			}
			continue
		}
		if e.IsDir {
			t.Fatalf("file %q flagged IsDir", e.Name)
		}
		if want, ok := wantSize[e.Name]; !ok || e.Size != want {
			t.Fatalf("entry %q size %d, want %d", e.Name, e.Size, want)
		}
	}

	again, _ := enumerate()
	for i := range all {
		if all[i] != again[i] {
			t.Fatalf("re-enumeration differs at %d: %+v vs %+v", i, all[i], again[i])
		}
	}

	// Error paths: non-positive page size and a missing directory.
	_, err := sys.GPU(0).Launch(0, 1, 32, func(c *gpufs.BlockCtx) error {
		if c.Idx != 0 {
			return nil
		}
		if _, _, err := c.Greaddir("/dir", 0, 0); err == nil {
			return fmt.Errorf("greaddir with max 0 succeeded")
		}
		if _, _, err := c.Greaddir("/no/such/dir", 0, 4); err == nil {
			return fmt.Errorf("greaddir of a missing directory succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

// warpReadRun launches one warp of threads reading against a staged
// file, one PAGE per thread so the coalesced span covers many pages and
// the vectored relaxed prefetch actually runs. Offsets are chosen by
// layout ("coalesced" = a contiguous ascending span; "divergent" = the
// same offsets reversed within the warp), and the run returns the virtual
// end time plus the system's warp stats.
func warpReadRun(t *testing.T, layout string) (simtime.Time, int64, int64, int64) {
	t.Helper()
	cfg := gpufs.ScaledConfig(1.0 / 256)
	// One (partial) warp, one page per thread, and a span that fits the
	// paging layer's batch-fetch budget so the whole tail rides a single
	// vectored warp-granularity RPC. (A wider span falls back to demand
	// misses past the budget, which the per-thread path's adaptive
	// read-ahead — it ramps on stride ±1 — would beat; that trade-off is
	// the read-ahead engine's test, not this one.)
	const threads = 16
	chunk := cfg.PageSize
	// Hold the whole corpus on both sides of the bus so timing reflects
	// transport, not eviction.
	if need := (threads + 16) * chunk; cfg.BufferCacheBytes < need {
		cfg.BufferCacheBytes = need
	}
	if need := 2 * cfg.BufferCacheBytes; cfg.GPUMemBytes < need {
		cfg.GPUMemBytes = need
	}
	if need := 4 * cfg.BufferCacheBytes; cfg.CPURAMBytes < need {
		cfg.CPURAMBytes = need
	}
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, int(chunk)*threads)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := sys.WriteHostFile("/warp/in.bin", data); err != nil {
		t.Fatal(err)
	}

	dsts := make([][]byte, threads)
	for i := range dsts {
		dsts[i] = make([]byte, chunk)
	}
	end, err := sys.GPU(0).Launch(0, 1, threads, func(c *gpufs.BlockCtx) error {
		if c.Idx != 0 {
			return nil
		}
		fd, err := c.Gopen("/warp/in.bin", gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		defer c.Gclose(fd)
		reqs := make([]gpufs.WarpReq, threads)
		for i := range reqs {
			reqs[i] = gpufs.WarpReq{Dst: dsts[i], Off: int64(i) * chunk}
		}
		if layout == "divergent" {
			// Reverse offsets within the warp: same bytes, same
			// per-thread sizes, but a descending span the coalescer
			// must reject.
			for a, b := 0, threads-1; a < b; a, b = a+1, b-1 {
				reqs[a].Off, reqs[b].Off = reqs[b].Off, reqs[a].Off
			}
		}
		n, err := c.GpreadWarp(fd, reqs)
		if err != nil {
			return err
		}
		if n != int64(len(data)) {
			return fmt.Errorf("gpread_warp read %d bytes, want %d", n, len(data))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch(%s): %v", layout, err)
	}

	// Every thread's buffer must hold the bytes at ITS offset, whichever
	// thread's request that was after the in-warp shuffle.
	for i := range dsts {
		off := int64(i) * chunk
		if layout == "divergent" {
			off = int64(threads-1-i) * chunk
		}
		if !bytes.Equal(dsts[i], data[off:off+chunk]) {
			t.Fatalf("%s: thread %d bytes differ from file at offset %d", layout, i, off)
		}
	}
	calls, coalesced, descriptors := sys.GPU(0).FS().WarpStats()
	return end, calls, coalesced, descriptors
}

// TestGpreadWarpCoalescing pins the descriptor accounting and the
// performance claim of warp-granularity reads: a contiguous warp costs
// ONE syscall descriptor, a divergent warp one per thread, and the
// coalesced layout finishes sooner in virtual time for identical bytes.
func TestGpreadWarpCoalescing(t *testing.T) {
	endCo, callsCo, coalescedCo, descCo := warpReadRun(t, "coalesced")
	endDiv, callsDiv, coalescedDiv, descDiv := warpReadRun(t, "divergent")

	if callsCo != 1 || callsDiv != 1 {
		t.Fatalf("warp read calls = %d/%d, want 1/1", callsCo, callsDiv)
	}
	if coalescedCo != 1 || descCo != 1 { // one warp, one descriptor
		t.Fatalf("coalesced run: %d warps coalesced, %d descriptors; want 1, 1", coalescedCo, descCo)
	}
	if coalescedDiv != 0 || descDiv != 16 { // per-thread fallback
		t.Fatalf("divergent run: %d warps coalesced, %d descriptors; want 0, 16", coalescedDiv, descDiv)
	}
	if endCo >= endDiv {
		t.Fatalf("coalesced run (%v) not faster than divergent (%v)", endCo, endDiv)
	}
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
