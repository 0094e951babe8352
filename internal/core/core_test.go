package core

import (
	"bytes"
	"errors"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/params"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// harness wires a minimal machine: host FS + consistency layer + RPC daemon
// + one or more GPUs each with a GPUfs instance.
type harness struct {
	host   *hostfs.FS
	layer  *wrapfs.Layer
	server *rpc.Server
	devs   []*gpu.Device
	fss    []*FS
}

// The rig's timing parameters, named so the golden cost tests can compute
// expected values from them.
var (
	rigHost = hostfs.Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      256 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	}
	rigBus = pcie.Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}
	rigRPC = rpc.Config{
		PollInterval:  10 * simtime.Microsecond,
		HandleCost:    12 * simtime.Microsecond,
		ReturnLatency: 2 * simtime.Microsecond,
	}
)

const rigDevMemBandwidth = 144_000 * simtime.MBps

func newHarness(t testing.TB, gpus int, opt Options) *harness {
	t.Helper()
	host := hostfs.New(rigHost)
	layer := wrapfs.New(host)
	bus := pcie.New(rigBus, host.MemBus())
	server := rpc.NewServer(rigRPC, layer)

	h := &harness{host: host, layer: layer, server: server}
	for i := 0; i < gpus; i++ {
		dev := gpu.New(gpu.Config{
			ID: i, MPs: opt.MPsPerGPU, BlocksPerMP: 2,
			MemBytes:     opt.BufferCacheBytes * 2,
			MemBandwidth: rigDevMemBandwidth,
			Flops:        1e9, ScratchpadBytes: 48 << 10,
		})
		link := bus.NewLink(i, dev.MemBandwidthResource(), rigDevMemBandwidth)
		fs, err := New(i, opt, server.NewClient(i, link), dev.Mem)
		if err != nil {
			t.Fatal(err)
		}
		h.devs = append(h.devs, dev)
		h.fss = append(h.fss, fs)
	}
	return h
}

// defaultOpt is what ships: params.Default's extended system — in-place hit
// reads, one frame-allocator shard per multiprocessor, read-ahead with the
// open carry and history replay, and the background cleaner — on the rig's
// four-MP device with 64 pages of 16K. A test that needs the paper's system
// runs prototypeOpt instead; no test builds a mix of the two.
func defaultOpt() Options {
	cfg := params.Default()
	cfg.MPsPerGPU = 4
	cfg.PageSize = 16 << 10
	cfg.BufferCacheBytes = 1 << 20 // 64 pages
	return Options{Config: cfg}
}

// prototypeOpt is defaultOpt as the paper's §4 prototype (Config.Prototype):
// copying reads, one free list, no read-ahead and no cleaner.
func prototypeOpt() Options {
	opt := defaultOpt()
	opt.Prototype = true
	return opt
}

const hostRW = hostfs.ModeRead | hostfs.ModeWrite

func (h *harness) write(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := h.host.WriteFile(simtime.NewClock(0), path, data, hostRW); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) read(t testing.TB, path string) []byte {
	t.Helper()
	data, err := h.host.ReadFile(simtime.NewClock(0), path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// run executes fn as a single threadblock on GPU g.
func (h *harness) run(t *testing.T, g int, fn func(b *gpu.Block) error) {
	t.Helper()
	if _, err := h.devs[g].Launch(0, 1, 64, fn); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

// runBlocks executes fn as n threadblocks on GPU g.
func (h *harness) runBlocks(t *testing.T, g, n int, fn func(b *gpu.Block) error) {
	t.Helper()
	if _, err := h.devs[g].Launch(0, n, 64, fn); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*7 + seed
	}
	return out
}

func TestReadCrossingPages(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	want := pattern(100<<10, 3) // ~6 pages
	h.write(t, "/f", want)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		// Straddle page boundaries at an odd offset.
		got := make([]byte, 40<<10)
		n, err := fs.Read(b, fd, got, 12345)
		if err != nil {
			return err
		}
		if n != len(got) || !bytes.Equal(got, want[12345:12345+n]) {
			t.Errorf("cross-page read mismatch (n=%d)", n)
		}
		// Read past EOF is short.
		n, err = fs.Read(b, fd, got, int64(len(want))-10)
		if err != nil || n != 10 {
			t.Errorf("EOF read: n=%d err=%v", n, err)
		}
		// Read at EOF returns 0.
		n, err = fs.Read(b, fd, got, int64(len(want)))
		if err != nil || n != 0 {
			t.Errorf("read at EOF: n=%d err=%v", n, err)
		}
		return nil
	})
}

func TestOpenCoalescingAndRefcounts(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(1024, 0))

	fds := make([]int, 16)
	h.runBlocks(t, 0, 16, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		fds[b.Idx] = fd
		buf := make([]byte, 64)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	// Every block must have received the same descriptor (descriptors
	// denote files, not opens).
	for _, fd := range fds[1:] {
		if fd != fds[0] {
			t.Fatalf("blocks got distinct descriptors: %v", fds)
		}
	}
	st := fs.Snapshot()
	if st.Opens != 16 {
		t.Fatalf("opens = %d", st.Opens)
	}
	// However the 16 opens interleave (coalescing on a live descriptor,
	// or fast reuse from the closed table between waves), exactly ONE
	// must have reached the host.
	if st.HostOpens != 1 {
		t.Fatalf("host opens = %d, want 1 (reuses %d)", st.HostOpens, st.ClosedTableReuses)
	}
}

func TestClosedTableReuseIsFree(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(64<<10, 1))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		buf := make([]byte, 64<<10)
		fs.Read(b, fd, buf, 0)
		return fs.Close(b, fd)
	})
	reads := h.server.Requests(rpc.OpReadPages)
	opens := h.server.Requests(rpc.OpOpen)

	// Re-open and re-read: all pages still cached, no host traffic.
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, 64<<10)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, pattern(64<<10, 1)) {
			t.Errorf("cached content wrong")
		}
		return fs.Close(b, fd)
	})
	if got := h.server.Requests(rpc.OpReadPages); got != reads {
		t.Fatalf("re-open re-read went to the host: %d new reads", got-reads)
	}
	if got := h.server.Requests(rpc.OpOpen); got != opens {
		t.Fatalf("re-open of closed-table file hit the host: %d new opens", got-opens)
	}
	if fs.Snapshot().ClosedTableReuses == 0 {
		t.Fatalf("closed-table reuse not counted")
	}
}

func TestLazyInvalidationOnHostWrite(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(16<<10, 1))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		buf := make([]byte, 16)
		fs.Read(b, fd, buf, 0)
		return fs.Close(b, fd)
	})

	// CPU overwrites the file while the GPU holds it in its closed table.
	h.write(t, "/f", pattern(16<<10, 99))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		buf := make([]byte, 16)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, pattern(16<<10, 99)[:16]) {
			t.Errorf("stale cache served after host modification")
		}
		return nil
	})
}

func TestWriteReadBackAndFsync(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	want := pattern(50<<10, 7)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/out", O_RDWR|O_CREATE)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, want, 0); err != nil {
			return err
		}
		// Local read-back before any sync.
		got := make([]byte, len(want))
		if _, err := fs.Read(b, fd, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("local read-back mismatch")
		}
		// Not yet on the host (gclose does not sync; neither does gwrite).
		if len(h.read(t, "/out")) != 0 {
			t.Errorf("data reached host before gfsync")
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		if !bytes.Equal(h.read(t, "/out"), want) {
			t.Errorf("host content wrong after gfsync")
		}
		return fs.Close(b, fd)
	})
}

func TestWriteOnceSemantics(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	// Pre-existing host content: O_GWRONCE never fetches it, and
	// diff-against-zeros merges GPU bytes over whatever the host has.
	pre := bytes.Repeat([]byte{0xEE}, 32<<10)
	h.write(t, "/merge", pre)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/merge", O_GWRONCE)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, []byte("GPU"), 1000); err != nil {
			return err
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	if h.server.Requests(rpc.OpReadPages) != 0 {
		t.Fatalf("O_GWRONCE fetched file content from the CPU")
	}
	got := h.read(t, "/merge")
	if string(got[1000:1003]) != "GPU" {
		t.Fatalf("written bytes missing")
	}
	if got[999] != 0xEE || got[1003] != 0xEE {
		t.Fatalf("diff-against-zeros reverted concurrent host bytes: %x %x", got[999], got[1003])
	}
}

func TestWriteOnceReadRejected(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/wo", O_GWRONCE)
		if err != nil {
			return err
		}
		if _, err := fs.Read(b, fd, make([]byte, 8), 0); !errors.Is(err, ErrWriteOnly) {
			t.Errorf("read from O_GWRONCE: %v", err)
		}
		return fs.Close(b, fd)
	})
}

func TestNoSyncTempFile(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/tmp-scratch", O_RDWR|O_NOSYNC)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, pattern(8<<10, 5), 0); err != nil {
			return err
		}
		got := make([]byte, 8<<10)
		if _, err := fs.Read(b, fd, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, pattern(8<<10, 5)) {
			t.Errorf("temp file read-back")
		}
		return fs.Close(b, fd)
	})
	// The temp file is unlinked from the host at final close.
	if _, err := h.host.Stat("/tmp-scratch"); err == nil {
		t.Fatalf("O_NOSYNC file survived on the host")
	}
}

func TestDiffMergeAcrossGPUs(t *testing.T) {
	// The general diff-and-merge protocol (the paper's future work):
	// two GPUs write disjoint halves of the same file — including within
	// a falsely-shared page — and both updates survive.
	h := newHarness(t, 2, defaultOpt())
	half := int64(24 << 10) // 1.5 pages: the middle page is falsely shared
	pre := make([]byte, 2*half)
	h.write(t, "/shared", pre)

	writer := func(g int, off int64, seed byte) func(b *gpu.Block) error {
		return func(b *gpu.Block) error {
			fs := h.fss[g]
			fd, err := fs.Open(b, "/shared", O_RDWR|O_GWRSHARED)
			if err != nil {
				return err
			}
			if _, err := fs.Write(b, fd, pattern(int(half), seed), off); err != nil {
				return err
			}
			if err := fs.Fsync(b, fd); err != nil {
				return err
			}
			return fs.Close(b, fd)
		}
	}
	h.run(t, 0, writer(0, 0, 1))
	h.run(t, 1, writer(1, half, 2))

	got := h.read(t, "/shared")
	if !bytes.Equal(got[:half], pattern(int(half), 1)) {
		t.Fatalf("GPU 0's half corrupted")
	}
	if !bytes.Equal(got[half:], pattern(int(half), 2)) {
		t.Fatalf("GPU 1's half corrupted (false sharing reverted it)")
	}
}

func TestSingleWriterEnforcedAcrossGPUs(t *testing.T) {
	h := newHarness(t, 2, defaultOpt())
	h.write(t, "/excl", pattern(1024, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		_, err := h.fss[0].Open(b, "/excl", O_RDWR)
		return err
	})
	// GPU 0 closed its open at block end? No: the open is still retired
	// to GPU 0's closed table, but EndWrite ran at close. Hold it open
	// instead:
	errCh := make(chan error, 1)
	h.run(t, 0, func(b *gpu.Block) error {
		_, err := h.fss[0].Open(b, "/excl", O_RDWR)
		if err != nil {
			return err
		}
		// While GPU 0 holds the write open, GPU 1 must be rejected.
		h.run(t, 1, func(b2 *gpu.Block) error {
			_, err2 := h.fss[1].Open(b2, "/excl", O_RDWR)
			errCh <- err2
			return nil
		})
		return nil
	})
	var busy *wrapfs.ErrBusy
	if err := <-errCh; !errors.As(err, &busy) {
		t.Fatalf("second GPU writer: %v", err)
	}
}

func TestFstatSemantics(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(12345, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDWR)
		info, err := fs.Fstat(b, fd)
		if err != nil {
			return err
		}
		if info.Size != 12345 || info.Path != "/f" || info.Ino == 0 {
			t.Errorf("fstat: %+v", info)
		}
		// gfstat is served from GPU state: no host RPC.
		before := h.server.Requests(rpc.OpStat)
		fs.Fstat(b, fd)
		// (refreshGeneration also stats; only count the direct call path)
		if h.server.Requests(rpc.OpStat) != before {
			t.Errorf("gfstat went to the host")
		}
		// Local writes extend the visible size.
		fs.Write(b, fd, []byte("xyz"), 20000)
		info, _ = fs.Fstat(b, fd)
		if info.Size != 20003 {
			t.Errorf("size after write: %d", info.Size)
		}
		return fs.Close(b, fd)
	})
}

func TestFtruncateReclaims(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(64<<10, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDWR)
		buf := make([]byte, 64<<10)
		fs.Read(b, fd, buf, 0)
		framesBefore := fs.Cache().FreeFrames()
		if err := fs.Ftruncate(b, fd, 20<<10); err != nil {
			return err
		}
		if fs.Cache().FreeFrames() <= framesBefore {
			t.Errorf("truncate reclaimed no pages")
		}
		info, _ := fs.Fstat(b, fd)
		if info.Size != 20<<10 {
			t.Errorf("size after truncate: %d", info.Size)
		}
		// Reads past the new end return 0.
		n, _ := fs.Read(b, fd, buf, 30<<10)
		if n != 0 {
			t.Errorf("read past truncation returned %d", n)
		}
		return fs.Close(b, fd)
	})
	if got := h.read(t, "/f"); len(got) != 20<<10 {
		t.Fatalf("host size after gftruncate: %d", len(got))
	}
}

func TestUnlinkReclaimsImmediately(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(32<<10, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		buf := make([]byte, 32<<10)
		fs.Read(b, fd, buf, 0)
		fs.Close(b, fd)
		free := fs.Cache().FreeFrames()
		if err := fs.Unlink(b, "/f"); err != nil {
			return err
		}
		if fs.Cache().FreeFrames() <= free {
			t.Errorf("unlink did not reclaim buffer space")
		}
		return nil
	})
	if _, err := h.host.Stat("/f"); err == nil {
		t.Fatalf("file survived gunlink")
	}
}

func TestUnlinkWhileOpenDefersDiscard(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(1<<10, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		if err := fs.Unlink(b, "/f"); err != nil {
			return err
		}
		// The open descriptor still reads.
		buf := make([]byte, 16)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			t.Errorf("read after unlink: %v", err)
		}
		return fs.Close(b, fd)
	})
	if _, err := h.host.Stat("/f"); err == nil {
		t.Fatalf("host file survived")
	}
}

func TestMmapSemantics(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	want := pattern(40<<10, 9)
	h.write(t, "/f", want)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		defer fs.Close(b, fd)

		// Request more than a page: get a prefix only.
		m, err := fs.Mmap(b, fd, 1000, 100<<10)
		if err != nil {
			return err
		}
		if int64(len(m.Data)) != opt.PageSize-1000 {
			t.Errorf("mapping length %d, want prefix to page end %d", len(m.Data), opt.PageSize-1000)
		}
		if !bytes.Equal(m.Data, want[1000:1000+len(m.Data)]) {
			t.Errorf("mapped bytes wrong")
		}
		// The mapping pins its page: it cannot be evicted.
		if m.Munmap(b) != nil {
			t.Errorf("munmap")
		}
		if err := m.Munmap(b); !errors.Is(err, ErrBadMapping) {
			t.Errorf("double munmap: %v", err)
		}

		// Beyond EOF fails.
		if _, err := fs.Mmap(b, fd, int64(len(want)), 10); !errors.Is(err, ErrInvalid) {
			t.Errorf("mmap beyond EOF: %v", err)
		}
		// Clamped at EOF.
		m2, err := fs.Mmap(b, fd, int64(len(want))-100, 1<<20)
		if err != nil {
			return err
		}
		if len(m2.Data) != 100 {
			t.Errorf("EOF clamp: %d", len(m2.Data))
		}
		return m2.Munmap(b)
	})
}

func TestMmapWriteAndMsync(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(16<<10, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDWR)
		defer fs.Close(b, fd)
		m, err := fs.Mmap(b, fd, 0, 16<<10)
		if err != nil {
			return err
		}
		if _, err := m.Write(b, 100, []byte("mapped write")); err != nil {
			return err
		}
		if err := m.Msync(b); err != nil {
			return err
		}
		return m.Munmap(b)
	})
	got := h.read(t, "/f")
	if string(got[100:112]) != "mapped write" {
		t.Fatalf("gmsync did not propagate: %q", got[100:112])
	}
}

func TestQuasiReadOnlyMappingNeverPropagates(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	orig := pattern(16<<10, 4)
	h.write(t, "/f", orig)

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		defer fs.Close(b, fd)
		m, _ := fs.Mmap(b, fd, 0, 4096)
		// "Improper" write through a read-only mapping: GPUfs returns
		// writable memory but never propagates the update.
		m.Data[0] = 0xFF
		m.MarkDirty()
		if err := m.Msync(b); err != nil {
			return err
		}
		fs.Fsync(b, fd)
		return m.Munmap(b)
	})
	if got := h.read(t, "/f"); got[0] != orig[0] {
		t.Fatalf("quasi-read-only update reached the host")
	}
}

func TestGfsyncSkipsMappedPages(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", make([]byte, 32<<10))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDWR)
		defer fs.Close(b, fd)
		// Page 0: mapped (referenced) and dirtied; page 1: dirtied via
		// gwrite. gfsync must flush page 1 but skip the mapped page 0.
		m, err := fs.Mmap(b, fd, 0, 4096)
		if err != nil {
			return err
		}
		if _, err := m.Write(b, 0, []byte("MAPPED")); err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, []byte("PLAIN"), 16<<10); err != nil {
			return err
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		host := h.read(t, "/f")
		if string(host[16<<10:16<<10+5]) != "PLAIN" {
			t.Errorf("unmapped dirty page not flushed")
		}
		if string(host[:6]) == "MAPPED" {
			t.Errorf("gfsync flushed a memory-mapped page")
		}
		return m.Munmap(b)
	})
}

func TestEvictionWriteBackAndRefetch(t *testing.T) {
	// Working set twice the cache: pages are written, evicted (with
	// write-back), and transparently refetched.
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	total := 32 * opt.PageSize
	h.write(t, "/big", make([]byte, total))

	want := pattern(int(total), 6)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/big", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, want, 0); err != nil {
			return err
		}
		got := make([]byte, total)
		if _, err := fs.Read(b, fd, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("read-back through eviction mismatch")
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	if fs.Cache().Reclaimed() == 0 {
		t.Fatalf("no pages were reclaimed despite cache pressure")
	}
	if !bytes.Equal(h.read(t, "/big"), want) {
		t.Fatalf("host content wrong after eviction-driven write-back + gfsync")
	}
}

func TestFlagConflict(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(1024, 0))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/f", O_RDONLY)
		if err != nil {
			return err
		}
		if _, err := fs.Open(b, "/f", O_RDWR); !errors.Is(err, ErrFlagConflict) {
			t.Errorf("conflicting flags: %v", err)
		}
		return fs.Close(b, fd)
	})
}

func TestBadFlagCombos(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		if _, err := fs.Open(b, "/x", O_GWRONCE|O_GWRSHARED); !errors.Is(err, ErrBadFlags) {
			t.Errorf("GWRONCE|GWRSHARED: %v", err)
		}
		if _, err := fs.Open(b, "/x", O_RDONLY|O_GWRSHARED); !errors.Is(err, ErrBadFlags) {
			t.Errorf("read-only GWRSHARED: %v", err)
		}
		return nil
	})
}

func TestBadDescriptorOps(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		buf := make([]byte, 8)
		if _, err := fs.Read(b, 99, buf, 0); !errors.Is(err, ErrBadFD) {
			t.Errorf("read bad fd: %v", err)
		}
		if _, err := fs.Write(b, 99, buf, 0); !errors.Is(err, ErrBadFD) {
			t.Errorf("write bad fd: %v", err)
		}
		if err := fs.Close(b, 99); !errors.Is(err, ErrBadFD) {
			t.Errorf("close bad fd: %v", err)
		}
		if _, err := fs.Read(b, -1, buf, -5); !errors.Is(err, ErrInvalid) {
			t.Errorf("negative offset: %v", err)
		}
		return nil
	})
}

func TestReadOnlyWriteRejected(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(64, 0))
	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		defer fs.Close(b, fd)
		if _, err := fs.Write(b, fd, []byte("x"), 0); !errors.Is(err, ErrReadOnly) {
			t.Errorf("write through read-only: %v", err)
		}
		if err := fs.Ftruncate(b, fd, 0); !errors.Is(err, ErrReadOnly) {
			t.Errorf("truncate through read-only: %v", err)
		}
		return nil
	})
}

func TestOpenMissingFile(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		if _, err := fs.Open(b, "/nope", O_RDONLY); err == nil {
			t.Errorf("open of missing file succeeded")
		}
		// The failure must not poison the table: creating it then works.
		fd, err := fs.Open(b, "/nope", O_RDWR|O_CREATE)
		if err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
}

func TestStatsSnapshot(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(32<<10, 0))
	h.runBlocks(t, 0, 4, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDONLY)
		buf := make([]byte, 16<<10)
		fs.Read(b, fd, buf, 0)
		return fs.Close(b, fd)
	})
	st := fs.Snapshot()
	if st.LockFreeAccesses == 0 {
		t.Fatalf("no lock-free accesses recorded")
	}
	if st.Opens != 4 {
		t.Fatalf("opens = %d", st.Opens)
	}
}

func TestReadAheadCorrectAndFaster(t *testing.T) {
	want := pattern(512<<10, 8) // 32 pages of 16K
	run := func(opt Options) simtime.Duration {
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/ra", want)
		var end simtime.Time
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/ra", O_RDONLY)
			if err != nil {
				return err
			}
			defer fs.Close(b, fd)
			got := make([]byte, 8<<10)
			for off := int64(0); off < int64(len(want)); off += int64(len(got)) {
				if _, err := fs.Read(b, fd, got, off); err != nil {
					return err
				}
				if !bytes.Equal(got, want[off:off+int64(len(got))]) {
					t.Errorf("read-ahead corrupted data at %d", off)
				}
			}
			end = b.Clock.Now()
			return nil
		})
		return simtime.Duration(end)
	}
	noRA := run(prototypeOpt())
	withRA := run(defaultOpt())
	if withRA >= noRA {
		t.Fatalf("sequential gread with read-ahead (%v) should beat the prototype's (%v)", withRA, noRA)
	}
}

func TestReadAheadNeverEvicts(t *testing.T) {
	// A cache too small for the window must shrink the speculation rather
	// than evict real data: the third sequential page confirms the stride
	// and the detector wants four more pages from a pool with one free.
	opt := defaultOpt()
	opt.BufferCacheBytes = 4 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/ra2", pattern(int(32*opt.PageSize), 9))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/ra2", O_RDONLY)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		buf := make([]byte, opt.PageSize)
		for p := int64(0); p < 3; p++ {
			if _, err := fs.Read(b, fd, buf, p*opt.PageSize); err != nil {
				return err
			}
		}
		return nil
	})
	if got := fs.Cache().Reclaimed(); got != 0 {
		t.Fatalf("read-ahead evicted %d pages from a full cache", got)
	}
}

func TestDisableFastReopenForcesHostPath(t *testing.T) {
	opt := defaultOpt()
	opt.DisableFastReopen = true
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/f", pattern(1024, 0))

	reopen := func() {
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/f", O_RDONLY)
			if err != nil {
				return err
			}
			return fs.Close(b, fd)
		})
	}
	reopen()
	reopen()
	if got := h.server.Requests(rpc.OpOpen); got != 2 {
		t.Fatalf("with fast reopen disabled, host opens = %d, want 2", got)
	}
	// Cached pages are still validated and reused through the slow path.
	if fs.Snapshot().HostOpens != 2 {
		t.Fatalf("host opens stat: %d", fs.Snapshot().HostOpens)
	}
}

func TestNoSyncSpillsOnlyUnderPressure(t *testing.T) {
	// O_NOSYNC files write to the host only to reclaim buffer space
	// (Table 1). With room in the cache, nothing leaves the GPU; under
	// pressure, spilled pages must still read back correctly.
	opt := defaultOpt()
	opt.BufferCacheBytes = 4 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	want := pattern(int(16*opt.PageSize), 3)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/scratch", O_RDWR|O_NOSYNC)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, want, 0); err != nil {
			return err
		}
		got := make([]byte, len(want))
		if _, err := fs.Read(b, fd, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("temp file corrupted through spill")
		}
		return fs.Close(b, fd)
	})
	if h.server.Requests(rpc.OpWritePages) == 0 {
		t.Fatalf("pressure should have spilled temp pages to the host")
	}
	if _, err := h.host.Stat("/scratch"); err == nil {
		t.Fatalf("temp file must vanish at final close")
	}
}

func TestWriteOnceManyBlocksDisjoint(t *testing.T) {
	// 32 blocks write disjoint slices of one O_GWRONCE output under
	// eviction pressure; the merged host file must be exact.
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	const blocks = 32
	chunk := int(opt.PageSize) * 3 / 4 // misaligned: false sharing guaranteed
	want := pattern(blocks*chunk, 5)

	h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/merged", O_GWRONCE)
		if err != nil {
			return err
		}
		off := b.Idx * chunk
		if _, err := fs.Write(b, fd, want[off:off+chunk], int64(off)); err != nil {
			return err
		}
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})

	got := h.read(t, "/merged")
	if len(got) != len(want) {
		t.Fatalf("merged size %d, want %d", len(got), len(want))
	}
	// Zero bytes written by a block are indistinguishable from holes
	// under diff-against-zeros, so compare only non-zero positions —
	// exactly the guarantee O_GWRONCE documents.
	for i := range want {
		if want[i] != 0 && got[i] != want[i] {
			t.Fatalf("byte %d: got %x want %x", i, got[i], want[i])
		}
	}
}

func TestMsyncViaFrameForData(t *testing.T) {
	// gmunmap/gmsync translate a raw-data-array pointer back to its
	// pframe by index arithmetic (§4.2); exercise the translation.
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/f", pattern(16<<10, 2))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/f", O_RDWR)
		defer fs.Close(b, fd)
		m, err := fs.Mmap(b, fd, 0, 4096)
		if err != nil {
			return err
		}
		defer m.Munmap(b)

		fr := fs.Cache().Frame(m.FrameIndex())
		if fs.Cache().FrameForData(fs.Cache().RawOffset(fr.Index)) != fr {
			t.Errorf("pointer-to-pframe translation broken")
		}
		return nil
	})
}

func TestFsyncDiskForcesStableStorage(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/persist", O_RDWR|O_CREATE)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		if _, err := fs.Write(b, fd, pattern(64<<10, 4), 0); err != nil {
			return err
		}
		h.host.Disk().Reset()
		if err := fs.FsyncDisk(b, fd); err != nil {
			return err
		}
		if _, written, _ := h.host.Disk().Stats(); written == 0 {
			t.Errorf("GfsyncDisk must reach the disk, not just the host page cache")
		}
		return nil
	})
}

func TestMappingReadHelper(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	want := pattern(8<<10, 6)
	h.write(t, "/mr", want)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/mr", O_RDONLY)
		defer fs.Close(b, fd)
		m, err := fs.Mmap(b, fd, 0, 8<<10)
		if err != nil {
			return err
		}
		defer m.Munmap(b)
		dst := make([]byte, 100)
		n, err := m.Read(b, 50, dst)
		if err != nil || n != 100 {
			t.Errorf("mapping read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dst, want[50:150]) {
			t.Errorf("mapping read content")
		}
		if _, err := m.Read(b, -1, dst); !errors.Is(err, ErrInvalid) {
			t.Errorf("negative mapping read: %v", err)
		}
		if _, err := m.Write(b, int64(len(m.Data))+5, dst); !errors.Is(err, ErrInvalid) {
			t.Errorf("out-of-range mapping write: %v", err)
		}
		return nil
	})
}

func TestAccessors(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	if fs.GPUID() != 0 || fs.PageSize() != defaultOpt().PageSize || fs.Client() == nil {
		t.Fatalf("accessors broken")
	}
}

func TestEvictionDrainsWholeLeaves(t *testing.T) {
	// A read-only streaming pass over a file much larger than the cache
	// must fully drain and detach old leaves (FIFO reclamation removes
	// last-level radix nodes, §4.2).
	opt := defaultOpt()
	opt.BufferCacheBytes = 4 * opt.PageSize
	opt.EvictBatch = 64 // drain eagerly so whole leaves empty out
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	// 80 pages -> at least two leaves (64 slots per leaf).
	total := 80 * opt.PageSize
	h.write(t, "/stream", pattern(int(total), 7))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/stream", O_RDONLY)
		defer fs.Close(b, fd)
		buf := make([]byte, opt.PageSize)
		for off := int64(0); off < total; off += opt.PageSize {
			if _, err := fs.Read(b, fd, buf, off); err != nil {
				return err
			}
		}
		return nil
	})
	if fs.Cache().Reclaimed() == 0 {
		t.Fatalf("no reclamation")
	}
}

func TestEvictionPolicyOrdering(t *testing.T) {
	// §4.2: reclaim from closed files first (no write-back needed, not
	// in use), then read-only opens, and writable opens last.
	opt := defaultOpt()
	opt.BufferCacheBytes = 12 * opt.PageSize
	opt.EvictBatch = 2 // reclaim only what the two-page demand needs
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	pageBytes := int(opt.PageSize)
	h.write(t, "/closed", pattern(4*pageBytes, 1))
	h.write(t, "/ro", pattern(4*pageBytes, 2))
	h.write(t, "/rw", pattern(4*pageBytes, 3))
	h.write(t, "/pressure", pattern(12*pageBytes, 4))

	h.run(t, 0, func(b *gpu.Block) error {
		buf := make([]byte, 4*pageBytes)

		// Populate: /closed read then closed; /ro and /rw stay open.
		cfd, _ := fs.Open(b, "/closed", O_RDONLY)
		fs.Read(b, cfd, buf, 0)
		fs.Close(b, cfd)

		rofd, _ := fs.Open(b, "/ro", O_RDONLY)
		fs.Read(b, rofd, buf, 0)
		rwfd, _ := fs.Open(b, "/rw", O_RDWR)
		fs.Read(b, rwfd, buf, 0)

		// All 12 frames in use. Touch 2 fresh pages: the victims must
		// come from the closed file, leaving /ro and /rw intact.
		pfd, _ := fs.Open(b, "/pressure", O_RDONLY)
		if _, err := fs.Read(b, pfd, buf[:2*pageBytes], 0); err != nil {
			return err
		}
		return nil
	})

	frames := func(path string) int64 {
		if fc := fs.ft.cacheOf(path); fc != nil {
			return fc.frames.Load()
		}
		return -1
	}
	if got := frames("/closed"); got > 2 {
		t.Fatalf("closed file kept %d frames; should be first victim", got)
	}
	if got := frames("/ro"); got != 4 {
		t.Fatalf("read-only open lost frames (%d) before the closed file was drained", got)
	}
	if got := frames("/rw"); got != 4 {
		t.Fatalf("writable open lost frames (%d) before higher-priority victims", got)
	}
}

func TestOracleConcurrentDisjoint(t *testing.T) {
	// 16 blocks each own a disjoint region of one shared O_RDWR file and
	// run random write/read/verify loops concurrently under eviction
	// pressure; every read must observe only the block's own writes.
	opt := defaultOpt()
	opt.BufferCacheBytes = 8 * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	const blocks = 16
	region := 3 * int(opt.PageSize) / 2 // misaligned: pages falsely shared
	h.write(t, "/conc", make([]byte, blocks*region))

	h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/conc", O_RDWR|O_GWRSHARED)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		base := int64(b.Idx) * int64(region)
		model := make([]byte, region)
		buf := make([]byte, region)
		for step := 0; step < 40; step++ {
			off := b.Rand.Intn(region - 1)
			n := b.Rand.Intn(region-off) + 1
			for i := 0; i < n; i++ {
				model[off+i] = byte(b.Rand.Intn(256))
			}
			if _, err := fs.Write(b, fd, model[off:off+n], base+int64(off)); err != nil {
				return err
			}
			if _, err := fs.Read(b, fd, buf, base); err != nil {
				return err
			}
			if !bytes.Equal(buf, model) {
				return errors.New("block observed foreign or stale bytes in its own region")
			}
			if step%13 == 0 {
				if err := fs.Fsync(b, fd); err != nil {
					return err
				}
			}
		}
		return nil
	})
	h.checkDirtyCounts(t)
}

func TestFsyncRange(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	total := 6 * int(opt.PageSize)
	h.write(t, "/rng", make([]byte, total))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/rng", O_RDWR)
		defer fs.Close(b, fd)
		// Dirty every page.
		if _, err := fs.Write(b, fd, pattern(total, 9), 0); err != nil {
			return err
		}
		// Sync only pages 2-3.
		if err := fs.FsyncRange(b, fd, 2*opt.PageSize, 2*opt.PageSize); err != nil {
			return err
		}
		host := h.read(t, "/rng")
		want := pattern(total, 9)
		lo, hi := int(2*opt.PageSize), int(4*opt.PageSize)
		if !bytes.Equal(host[lo:hi], want[lo:hi]) {
			t.Errorf("ranged sync did not flush the requested pages")
		}
		clean := true
		for i := 0; i < lo; i++ {
			if host[i] != 0 {
				clean = false
				break
			}
		}
		if !clean {
			t.Errorf("ranged sync flushed pages outside the range")
		}
		if err := fs.FsyncRange(b, fd, -1, 5); !errors.Is(err, ErrInvalid) {
			t.Errorf("negative range: %v", err)
		}
		// Full sync afterwards flushes the rest.
		if err := fs.Fsync(b, fd); err != nil {
			return err
		}
		if !bytes.Equal(h.read(t, "/rng"), want) {
			t.Errorf("full sync incomplete")
		}
		return nil
	})
}

func TestHostPermissionEnforcedForGPU(t *testing.T) {
	// §4.5: "The host OS prevents a GPUfs application from opening host
	// files the application doesn't have permission to access."
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	if err := h.host.WriteFile(simtime.NewClock(0), "/secret", []byte("x"), hostfs.ModeWrite); err != nil {
		t.Fatal(err)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		if _, err := fs.Open(b, "/secret", O_RDONLY); !errors.Is(err, hostfs.ErrPerm) {
			t.Errorf("unreadable host file opened from the GPU: %v", err)
		}
		return nil
	})
}

func TestGfstatServedLocallyAfterReopen(t *testing.T) {
	// "File size reflects file size at the time of the first gopen"
	// (Table 1) — including across close/reopen round trips through the
	// closed file table, extended by local writes.
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	h.write(t, "/sz", pattern(1000, 1))

	h.run(t, 0, func(b *gpu.Block) error {
		fd, _ := fs.Open(b, "/sz", O_RDWR)
		fs.Write(b, fd, []byte("xx"), 5000) // extend locally
		fs.Close(b, fd)

		fd, err := fs.Open(b, "/sz", O_RDWR)
		if err != nil {
			return err
		}
		defer fs.Close(b, fd)
		info, _ := fs.Fstat(b, fd)
		if info.Size != 5002 {
			t.Errorf("size after reopen: %d, want 5002", info.Size)
		}
		return nil
	})
}
