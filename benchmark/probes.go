package main

import (
	"fmt"
	"runtime"
	"time"

	"gpufs"
	"gpufs/internal/ckpt"
	"gpufs/internal/core/epoch"
	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/disk"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/memsys"
	"gpufs/internal/metrics"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
	"gpufs/internal/workloads"
)

// Layer probes: direct calls into ONE layer's public functions, run once,
// outside any workload.
//
// The host-cost probes are tight loops with fixed iteration counts
// (testing.Benchmark-style, but never calibrating: the same work on every
// commit). They say which layer's simulator cost moved host_s.
//
// The virtual-cost probes are the golden costs of ROADMAP item 3: one RPC
// round trip, one DMA, one warm host read, one disk seek, one cache hit,
// one page fault, one vectored fill, each on an otherwise idle machine.
// They say which layer's MODEL moved, where the pinned
// elapsed=18089863 of TestStrongOrderingBitIdenticalBaseline cannot.

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink any

// nsPerOp times n iterations of fn on the host clock.
func nsPerOp(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

func hostProbes(out map[string]float64, smoke bool) error {
	n := 200_000
	if smoke {
		n = 2_000
	}

	// radix: insert a dense run of pages, then look them up lock-free
	// under an epoch pin, as the hit path does.
	const pages = 1 << 14
	tree := radix.NewTree()
	out["radix.insert_ns"] = nsPerOp(pages, func(i int) { tree.Insert(uint64(i)) })
	out["radix.lookup_ns"] = nsPerOp(n, func(i int) {
		g := tree.Pin()
		sink = tree.Lookup(uint64(i*7919) % pages)
		g.Exit()
	})

	var dom epoch.Domain
	out["epoch.pin_ns"] = nsPerOp(n, func(int) { dom.Enter().Exit() })

	arena := memsys.NewArena("probe", memsys.DeviceMemory, 4<<20)
	cache, err := pcache.NewSharded(arena, 4<<20, 32<<10, 14)
	if err != nil {
		return err
	}
	out["pcache.alloc_release_ns"] = nsPerOp(n, func(i int) {
		cache.Release(cache.TryAllocOn(i, 1, int64(i)<<15), false)
	})

	frame := gsys.Frame{
		Desc: gsys.Desc{Sysno: gsys.SysRead, Gran: gsys.GranBlock, Order: gsys.OrderStrong, Block: gsys.CallBlocking},
		Lane: 7, Seq: 1, Args: []uint64{3, 1 << 20, 32 << 10}, Path: "/bench/seq.bin",
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out["gsys.frame_codec_ns"] = nsPerOp(n, func(i int) {
		frame.Seq = uint64(i)
		f, err := gsys.DecodeFrame(frame.Encode())
		if err != nil {
			panic(err)
		}
		sink = f
	})
	runtime.ReadMemStats(&after)
	out["gsys.frame_codec_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	res := simtime.NewResource("probe")
	out["simtime.acquire_ns"] = nsPerOp(n, func(i int) { res.Acquire(simtime.Time(i)*100, 60) })

	hist := metrics.New().DurationHistogram("probe_seconds")
	out["metrics.observe_ns"] = nsPerOp(n, func(i int) { hist.Observe(int64(i)) })

	tr := trace.New(1 << 12)
	tr.Enable(true)
	out["trace.record_ns"] = nsPerOp(n, func(i int) {
		tr.Record(trace.Event{Op: trace.OpRead, Path: "/bench/seq.bin", Start: simtime.Time(i), End: simtime.Time(i + 1)})
	})

	// ckpt: encode and decode an image of 64 dirty 32 KiB pages.
	img := &ckpt.Image{GPUs: []ckpt.FSImage{{Files: []ckpt.FileImage{{Path: "/bench/hot.bin", Ino: 2, Gen: 1, Size: 2 << 20}}}}}
	page := randomBytes(1, 32<<10)
	for i := int64(0); i < 64; i++ {
		f := &img.GPUs[0].Files[0]
		f.Dirty = append(f.Dirty, ckpt.PageImage{Index: i, Valid: int64(len(page)), Data: page})
	}
	rounds := 20
	if smoke {
		rounds = 2
	}
	var wire []byte
	t := time.Now()
	for i := 0; i < rounds; i++ {
		wire = img.Encode()
		if _, err := ckpt.Decode(wire); err != nil {
			return err
		}
	}
	out["ckpt.codec_mbps"] = float64(rounds*len(wire)) / time.Since(t).Seconds() / 1e6
	return nil
}

// virtualProbes measures the golden virtual costs. They are functions of
// the model alone, so they repeat exactly and do not depend on the seed.
func virtualProbes(out map[string]float64) error {
	const page = 32 << 10
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.PageSize = page
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		return err
	}
	const path = "/probe/f.bin"
	if err := sys.WriteHostFile(path, randomBytes(1, 64*page)); err != nil {
		return err
	}
	sys.ResetTime()

	// rpc: one empty request through the ring and the daemon, and back.
	clk := simtime.NewClock(0)
	err = sys.GPU(0).FS().Client().Do(clk, rpc.OpStat, func(*simtime.Clock) (simtime.Time, error) { return 0, nil })
	if err != nil {
		return err
	}
	out["rpc.roundtrip_vus"] = vus(simtime.Duration(clk.Now()))
	sys.ResetTime()

	out["pcie.dma_32k_vus"] = vus(simtime.Duration(sys.GPU(0).Link().Charge(0, pcie.HostToDevice, page)))
	sys.ResetTime()

	clk = simtime.NewClock(0)
	f, err := sys.Host().Open(clk, path, hostfs.O_RDONLY, 0)
	if err != nil {
		return err
	}
	opened := clk.Now()
	if _, err := f.Pread(clk, make([]byte, page), 0); err != nil {
		return err
	}
	out["hostfs.pread_warm_32k_vus"] = vus(clk.Now().Sub(opened))
	if err := f.Close(); err != nil {
		return err
	}
	sys.ResetTime()

	d := disk.New(cfg.DiskBandwidth, cfg.DiskSeek)
	out["disk.seek_read_32k_vus"] = vus(simtime.Duration(d.Read(0, 2, 1<<20, page)))

	// core: one block, one call each. Page 0 cold is a fault; page 0 again
	// is a hit; pages 8..15 in one Gread is a vectored fill.
	var fault, hit, vec simtime.Duration
	_, err = sys.GPU(0).Launch(0, 1, blockThreads, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(path, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		read := func(buf []byte, off int64) (simtime.Duration, error) {
			t := c.Clock.Now()
			_, err := c.Gread(fd, buf, off)
			return c.Clock.Now().Sub(t), err
		}
		if fault, err = read(c.Scratch[:page], 0); err != nil {
			return err
		}
		if hit, err = read(c.Scratch[:page], 0); err != nil {
			return err
		}
		if vec, err = read(make([]byte, 8*page), 8*page); err != nil {
			return err
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return err
	}
	out["core.fault_32k_vus"], out["core.hit_32k_vus"], out["core.vec_fill_8p_vus"] = vus(fault), vus(hit), vus(vec)
	return nil
}

// paperWholeFileMBps is Figure 4's whole-file transfer as the paper
// measured it: the one reference value this repo holds. Beyond it the
// model is unvalidated, and the benchmark gives no other error figure.
const paperWholeFileMBps = 2100

// cudaBaselines runs seq_cold's two non-GPUfs baselines once each: the
// hand-pipelined CUDA reader with page-sized chunks, and the whole-file
// pread plus one cudaMemcpy.
func cudaBaselines(out map[string]float64, seed int64, smoke bool) error {
	const chunk = 32 << 10
	fileBytes := int64(64 << 20)
	if smoke {
		fileBytes = 4 << 20
	}
	cfg := baseConfig()
	cfg.NumGPUs = 1
	cfg.GPUMemBytes = 2*fileBytes + 1<<20
	cfg.BufferCacheBytes = 1 << 20
	cfg.CPURAMBytes = max(cfg.CPURAMBytes, 4*fileBytes)
	const path = "/bench/seq.bin"
	for _, b := range []struct {
		name string
		run  func(sys *gpufs.System) (*workloads.MicroResult, error)
	}{
		{"cudart.pipeline_mbps", func(sys *gpufs.System) (*workloads.MicroResult, error) {
			return workloads.SeqReadCUDAPipeline(sys, 0, path, fileBytes, chunk)
		}},
		{"cudart.wholefile_mbps", func(sys *gpufs.System) (*workloads.MicroResult, error) {
			return workloads.SeqReadWholeFile(sys, 0, path, fileBytes)
		}},
	} {
		sys, err := gpufs.NewSystem(cfg)
		if err != nil {
			return err
		}
		if err := sys.WriteHostFile(path, randomBytes(seed, fileBytes)); err != nil {
			return err
		}
		sys.ResetTime()
		res, err := b.run(sys)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		out[b.name] = float64(res.Throughput) / 1e6
	}
	out["cudart.wholefile_err_pct"] = (out["cudart.wholefile_mbps"]/paperWholeFileMBps - 1) * 100
	return nil
}

// runProbes runs every probe and reference baseline once.
func runProbes(seed int64, smoke bool) (map[string]float64, error) {
	out := map[string]float64{}
	if err := hostProbes(out, smoke); err != nil {
		return nil, err
	}
	if err := virtualProbes(out); err != nil {
		return nil, err
	}
	if err := cudaBaselines(out, seed, smoke); err != nil {
		return nil, err
	}
	return out, nil
}
