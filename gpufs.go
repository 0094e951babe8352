// Package gpufs is a reproduction, in simulation, of "GPUfs: Integrating a
// File System with GPUs" (Silberstein, Ford, Keidar, Witchel — ASPLOS
// 2013): a POSIX-like file system API for GPU kernels, backed by a
// GPU-resident buffer cache and a GPU→CPU RPC protocol.
//
// Since Go cannot execute code on a GPU, the package simulates the hardware
// the paper targets — a multi-GPU FERMI-class machine — and implements
// GPUfs itself, unchanged in structure, on top of the simulation.
// Threadblocks are goroutines and the buffer cache's lock-free structures
// are contended by real concurrency; performance is accounted in virtual
// time calibrated to the paper's measured hardware constants.
//
// # Usage
//
// Build a System (host + GPUs), populate the host file system, and launch
// GPU kernels whose threadblocks use the GPUfs API:
//
//	cfg := gpufs.ScaledConfig(1.0 / 32)
//	sys, err := gpufs.NewSystem(cfg)
//	...
//	sys.WriteHostFile("/data/in", input)
//	end, err := sys.GPU(0).Launch(0, 28, 512, func(c *gpufs.BlockCtx) error {
//		fd, err := c.Gopen("/data/in", gpufs.O_RDONLY)
//		if err != nil {
//			return err
//		}
//		defer c.Gclose(fd)
//		buf := make([]byte, 4096)
//		_, err = c.Gread(fd, buf, int64(c.Idx)*4096)
//		return err
//	})
//
// The GPUfs calls are collective at threadblock granularity, exactly like
// the paper's prototype: each block invokes them once, on behalf of all its
// threads.
package gpufs

import (
	"fmt"

	"gpufs/internal/ckpt"
	"gpufs/internal/core"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/metrics"
	"gpufs/internal/params"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
	"gpufs/internal/wrapfs"
)

// Config is the full machine and library configuration; see
// internal/params for field documentation. DefaultConfig matches the
// paper's testbed (4 TESLA C2075 GPUs, PCIe 2.0, 7200RPM disk).
type Config = params.Config

// FaultConfig sets the seeded fault-injection schedule; see internal/faults
// for the per-site probability and magnitude fields. Pass it to
// System.EnableFaults.
type FaultConfig = faults.Config

// Open flags for Gopen.
const (
	O_RDONLY    = core.O_RDONLY
	O_WRONLY    = core.O_WRONLY
	O_RDWR      = core.O_RDWR
	O_CREATE    = core.O_CREATE
	O_TRUNC     = core.O_TRUNC
	O_GWRONCE   = core.O_GWRONCE
	O_GWRSHARED = core.O_GWRSHARED
	O_NOSYNC    = core.O_NOSYNC
)

// Re-exported types so applications need only this package.
type (
	// Info is the result of Gfstat.
	Info = core.Info
	// Mapping is a Gmmap'd window into the buffer cache.
	Mapping = core.Mapping
	// Stats is GPUfs instrumentation (lock-free vs locked accesses,
	// pages reclaimed, open coalescing).
	Stats = core.Stats
	// Time is a virtual timestamp.
	Time = simtime.Time
	// Duration is a span of virtual time.
	Duration = simtime.Duration
	// Dirent is one directory entry returned by Greaddir.
	Dirent = core.Dirent
	// WarpReq is one thread's positioned read within a GpreadWarp call.
	WarpReq = core.WarpReq
	// OpenFuture is the join handle of a GopenAhead.
	OpenFuture = core.OpenFuture
	// PipeMode selects the end of a pipe (PipeReader or PipeWriter).
	PipeMode = core.PipeMode
)

// Pipe ends for GpipeOpen and GpipeClose.
const (
	PipeReader = core.PipeReader
	PipeWriter = core.PipeWriter
)

// DefaultConfig returns the paper-testbed configuration at full scale.
func DefaultConfig() Config { return params.Default() }

// ScaledConfig returns the paper-testbed configuration with all capacities
// scaled by the given factor, so experiments run quickly while preserving
// every capacity-driven crossover.
func ScaledConfig(scale float64) Config { return params.Scaled(scale) }

// System is one simulated machine: the host (CPU, RAM, disk, file system,
// GPUfs consistency layer and RPC daemon) plus its GPUs.
type System struct {
	cfg      Config
	host     *hostfs.FS
	layer    *wrapfs.Layer
	bus      *pcie.Bus
	server   *rpc.Server
	syscalls *gsys.Service
	gpus     []*GPU

	// hostClock orders host-side setup operations (workload generation).
	hostClock *simtime.Clock

	tracer *trace.Tracer
	faults *faults.Injector
	met    *metrics.Registry
}

// GPU is one device together with its GPUfs instance.
type GPU struct {
	sys  *System
	dev  *gpu.Device
	link *pcie.Link
	fs   *core.FS
}

// NewSystem builds a simulated machine from the configuration, with no
// metrics registry attached.
func NewSystem(cfg Config) (*System, error) {
	return NewSystemWithMetrics(cfg, nil)
}

// NewSystemWithMetrics builds a simulated machine that records into reg;
// several Systems (a benchmark sweep, a fleet's hosts) may share one
// registry. A nil reg is NewSystem: no metrics. Collection is
// observation-only and never perturbs virtual timing.
func NewSystemWithMetrics(cfg Config, reg *metrics.Registry) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	host := hostfs.New(hostfs.Options{
		DiskBandwidth: cfg.DiskBandwidth,
		DiskSeek:      cfg.DiskSeek,
		MemBandwidth:  cfg.CPUMemBandwidth,
		// The OS and applications claim a slice of RAM; the rest
		// backs the page cache. This is why the paper's largest
		// matrix (11 GB on a 12 GB machine) "barely fits": GPUfs
		// squeaks by, while the CUDA baselines' pinned buffers push
		// the page cache into the disk-bound regime (§5.1.4).
		CacheBytes:      cfg.CPURAMBytes / 16 * 15,
		SyscallOverhead: cfg.SyscallOverhead,
	})
	layer := wrapfs.New(host)
	bus := pcie.New(pcie.Config{
		Bandwidth:        cfg.PCIeBandwidth,
		DMALatency:       cfg.DMALatency,
		Channels:         cfg.DMAChannels,
		HostMemBandwidth: cfg.CPUMemBandwidth,
	}, host.MemBus())
	server := rpc.NewServer(rpc.Config{
		PollInterval:  cfg.RPCPollInterval,
		HandleCost:    cfg.RPCHandleCost,
		ReturnLatency: cfg.RPCPollInterval / 4,
		Shards:        cfg.RPCShards,
		Workers:       cfg.DaemonWorkers,
	}, layer)
	// Attach instrumentation before any Link or Client exists: both
	// pre-resolve their metric handles at construction time.
	bus.SetMetrics(reg)
	server.SetMetrics(reg)

	// One syscall service for the whole machine: the syscall table is
	// stateless, but the gpipe table must be shared so kernels on
	// different GPUs can meet at a named pipe.
	syscalls := gsys.NewService(server, !cfg.Prototype)

	sys := &System{
		cfg:       cfg,
		host:      host,
		layer:     layer,
		bus:       bus,
		server:    server,
		syscalls:  syscalls,
		hostClock: simtime.NewClock(0),
		met:       reg,
	}

	for i := 0; i < cfg.NumGPUs; i++ {
		dev := gpu.New(gpu.Config{
			ID:              i,
			MPs:             cfg.MPsPerGPU,
			BlocksPerMP:     cfg.BlocksPerMP,
			WarpSize:        cfg.WarpSize,
			MemBytes:        cfg.GPUMemBytes,
			MemBandwidth:    cfg.GPUMemBandwidth,
			Flops:           cfg.GPUFlops,
			ScratchpadBytes: cfg.ScratchpadBytes,
			LaunchOverhead:  cfg.KernelLaunchOverhead,
		})
		link := bus.NewLink(i, dev.MemBandwidthResource(), cfg.GPUMemBandwidth)
		client := server.NewClient(i, link)
		// The extended system keeps one allocator shard per multiprocessor:
		// lanes (threadblocks and the cleaner) hash by index, so the shard
		// count that matches the hardware's concurrency is the MP count.
		// The prototype has one free list.
		frameShards := cfg.MPsPerGPU
		if cfg.Prototype {
			frameShards = 1
		}
		fs, err := core.New(i, core.Options{
			PageSize:             cfg.PageSize,
			CacheBytes:           cfg.BufferCacheBytes,
			APICostPerPage:       cfg.APICostPerPage,
			RadixLookupLockFree:  cfg.RadixLookupLockFree,
			RadixLookupLocked:    cfg.RadixLookupLocked,
			ForceLockedTraversal: cfg.ForceLockedTraversal,
			ReadAheadAdaptive:    !cfg.Prototype,
			Cleaner:              !cfg.Prototype,
			DisableFastReopen:    cfg.DisableFastReopen,
			ZeroCopyRead:         !cfg.Prototype,
			CkptMaxBytes:         cfg.CkptMaxBytes,
			FrameShards:          frameShards,
			Metrics:              reg,
			Syscalls:             syscalls,
		}, client, dev.Mem)
		if err != nil {
			return nil, fmt.Errorf("gpufs: initializing GPU %d: %w", i, err)
		}
		sys.gpus = append(sys.gpus, &GPU{sys: sys, dev: dev, link: link, fs: fs})
	}
	return sys, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// NumGPUs reports how many GPUs the system has.
func (s *System) NumGPUs() int { return len(s.gpus) }

// GPU returns device i.
func (s *System) GPU(i int) *GPU { return s.gpus[i] }

// Host exposes the host file system (for CPU-side programs and workload
// setup).
func (s *System) Host() *hostfs.FS { return s.host }

// HostClock is the clock used for host-side convenience operations.
func (s *System) HostClock() *simtime.Clock { return s.hostClock }

// Server exposes the CPU-side GPUfs daemon (stats).
func (s *System) Server() *rpc.Server { return s.server }

// Syscalls exposes the machine's shared syscall service (the syscall
// table and the gpipe table).
func (s *System) Syscalls() *gsys.Service { return s.syscalls }

// Bus exposes the interconnect (Figure 5 cost toggles).
func (s *System) Bus() *pcie.Bus { return s.bus }

// WriteHostFile creates path on the host file system with the given
// content, creating parent directories as needed.
func (s *System) WriteHostFile(path string, data []byte) error {
	if err := s.host.MkdirAll(dirOf(path), hostfs.ModeDir|hostfs.ModeRead|hostfs.ModeWrite); err != nil {
		return err
	}
	return s.host.WriteFile(s.hostClock, path, data, hostfs.ModeRead|hostfs.ModeWrite)
}

// ReadHostFile reads path from the host file system.
func (s *System) ReadHostFile(path string) ([]byte, error) {
	return s.host.ReadFile(s.hostClock, path)
}

// DropHostCaches flushes the host page cache, as the paper does before the
// disk-bound experiments.
func (s *System) DropHostCaches() { s.host.DropCaches() }

// EnableTracing attaches a shared operation tracer (capacity events kept)
// to every GPU's GPUfs instance and turns it on. Returns the tracer for
// inspection; see internal/trace for the event format and summaries.
func (s *System) EnableTracing(capacity int) *trace.Tracer {
	tr := trace.New(capacity)
	tr.Enable(true)
	for _, g := range s.gpus {
		g.fs.SetTracer(tr)
	}
	s.tracer = tr
	// Injected faults and RPC retries appear among the workload's events.
	s.faults.SetTracer(tr)
	return tr
}

// Tracer returns the tracer installed by EnableTracing, or nil.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// Metrics returns the registry the system was built with
// (NewSystemWithMetrics), or nil.
func (s *System) Metrics() *metrics.Registry { return s.met }

// EnableFaults installs a seeded fault injector across the whole machine:
// the RPC daemon (slow polls, lost/duplicated responses, transient EAGAIN),
// the host file system and disk (EIO, short reads, bad sectors, fsync
// failures, latency spikes), and the PCIe complex (DMA stalls, bandwidth
// degradation). The schedule is a pure function of cfg.Seed. Returns the
// injector, whose SetEnabled toggles injection without losing counters.
func (s *System) EnableFaults(cfg FaultConfig) *faults.Injector {
	inj := faults.New(cfg)
	s.host.SetFaultInjector(inj)
	s.bus.SetFaultInjector(inj)
	s.server.SetFaultInjector(inj)
	s.faults = inj
	if s.tracer != nil {
		inj.SetTracer(s.tracer)
	}
	return inj
}

// FaultInjector returns the injector installed by EnableFaults, or nil.
func (s *System) FaultInjector() *faults.Injector { return s.faults }

// ResetTime returns every virtual-time resource in the machine (host memory
// bus, disk, DMA channels, RPC daemon, GPU execution slots) to idle, and
// rewinds the host setup clock. File contents, page-cache residency, and
// GPU buffer-cache contents are untouched. Benchmarks call it between
// workload generation and measurement, and between back-to-back runs
// sharing one System.
func (s *System) ResetTime() {
	s.host.ResetTime()
	s.server.ResetTime()
	for _, g := range s.gpus {
		g.dev.ResetTime()
		g.link.Reset()
		g.fs.ResetTimes()
	}
	s.hostClock = simtime.NewClock(0)
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			if i == 0 {
				return "/"
			}
			return p[:i]
		}
	}
	return "/"
}

// Device exposes the underlying device model.
func (g *GPU) Device() *gpu.Device { return g.dev }

// Link exposes the device's PCIe link (stats, baselines).
func (g *GPU) Link() *pcie.Link { return g.link }

// FS exposes the device's GPUfs instance (stats, tests).
func (g *GPU) FS() *core.FS { return g.fs }

// Restart models a GPU-card restart after a software failure (§3.3 of the
// paper): the device's fault latch is cleared and its ENTIRE memory state
// is lost — every GPUfs descriptor, cached page, and un-synchronized write
// on this GPU is gone. Host files keep whatever was previously propagated
// by Gfsync or Gmsync.
func (g *GPU) Restart() {
	g.dev.ResetFault()
	// The restart itself is host-driven; run its teardown on a host-side
	// clock carried by a throwaway block context.
	g.dev.Launch(0, 1, 1, func(b *gpu.Block) error {
		g.fs.Restart(b)
		return nil
	})
}

// CheckpointImage captures this GPU's GPUfs state — buffer cache, file
// tables, history profiles — into an image, copy-on-write against any
// kernels still running (ISSUE 10). It returns the image and the capture
// actor's virtual end time. Use serve.Server.Checkpoint for a whole-host
// capture with queue freezing.
func (g *GPU) CheckpointImage(start Time) (*ckpt.FSImage, Time, error) {
	return g.fs.CheckpointImage(start)
}

// RestoreImage materializes a checkpoint image onto this (fresh) GPU's
// GPUfs instance. Like Restart, the work is host-driven: a throwaway
// single-block launch carries the restore's virtual cost, and the
// returned time is the restore's virtual completion.
func (g *GPU) RestoreImage(img *ckpt.FSImage) (Time, error) {
	return g.dev.Launch(0, 1, 1, func(b *gpu.Block) error {
		return g.fs.RestoreImage(b, img)
	})
}

// ResidentPages reports how many buffer-cache pages of path this GPU
// currently holds (open or closed-table). The serving layer
// (internal/serve) uses it to route jobs to the GPU whose cache already
// holds their input.
func (g *GPU) ResidentPages(path string) int64 { return g.fs.ResidentPages(path) }

// Stats returns the GPUfs instrumentation counters for this device,
// including the host daemon's RPC totals and the machine-wide injected
// fault count (zero unless EnableFaults was called).
func (g *GPU) Stats() Stats {
	st := g.fs.Snapshot()
	st.RPCRequests = g.sys.server.TotalRequests()
	st.FaultsInjected = g.sys.faults.TotalInjected()
	return st
}

// BlockCtx is the execution context of one threadblock with the GPUfs API
// attached. It embeds the device block context (Idx, Threads, Clock,
// SyncThreads, Compute, …).
type BlockCtx struct {
	*gpu.Block
	fs *core.FS
}

// Launch runs a kernel of blocks×threads on the device, starting at the
// given virtual time, and returns the kernel's virtual completion time.
// Like every GPU kernel, blocks are dispatched in non-deterministic order
// and run to completion. The supplied function is the threadblock body; it
// performs GPUfs calls collectively on behalf of its threads.
func (g *GPU) Launch(start Time, blocks, threads int, fn func(*BlockCtx) error) (Time, error) {
	return g.dev.Launch(start, blocks, threads, func(b *gpu.Block) error {
		return fn(&BlockCtx{Block: b, fs: g.fs})
	})
}

// ---- The GPUfs API (Table 1) ----

// Gopen opens a file in the namespace shared by all threadblocks of this
// GPU. Concurrent opens of the same file coalesce into one host open, and
// the returned descriptor denotes the file (not the open): every block
// opening the same file receives the same descriptor.
func (c *BlockCtx) Gopen(path string, flags int) (int, error) {
	return c.fs.Open(c.Block, path, flags)
}

// Gclose drops one block's reference to the descriptor. It does NOT
// propagate dirty data to the host — call Gfsync for that.
func (c *BlockCtx) Gclose(fd int) error { return c.fs.Close(c.Block, fd) }

// Gread reads len(dst) bytes at the explicit offset off (pread semantics —
// descriptors have no seek pointers).
func (c *BlockCtx) Gread(fd int, dst []byte, off int64) (int, error) {
	return c.fs.Read(c.Block, fd, dst, off)
}

// Gwrite writes len(src) bytes at the explicit offset off into the GPU
// buffer cache (pwrite semantics).
func (c *BlockCtx) Gwrite(fd int, src []byte, off int64) (int, error) {
	return c.fs.Write(c.Block, fd, src, off)
}

// Gfsync synchronously writes back to the host all of the file's dirty
// pages that are not currently memory-mapped (those are Gmsync's); pages
// another block is reading, writing or syncing at the moment are written back
// too. Every page's write is issued before any is waited for, and the call
// returns when the last has landed — including a write-back of one of the
// file's pages that another block or the cleaner still had in flight.
func (c *BlockCtx) Gfsync(fd int) error { return c.fs.Fsync(c.Block, fd) }

// GfsyncRange synchronizes only the byte range [off, off+n) — the paper's
// gfsync accepts "either an entire file or a specific offset range".
func (c *BlockCtx) GfsyncRange(fd int, off, n int64) error {
	return c.fs.FsyncRange(c.Block, fd, off, n)
}

// GfsyncDisk additionally forces the file to stable storage (host fsync).
func (c *BlockCtx) GfsyncDisk(fd int) error { return c.fs.FsyncDisk(c.Block, fd) }

// Gmmap maps a prefix of [off, off+length) directly into the buffer cache;
// the mapping never crosses a cache page boundary, so callers loop to map
// more.
func (c *BlockCtx) Gmmap(fd int, off, length int64) (*Mapping, error) {
	return c.fs.Mmap(c.Block, fd, off, length)
}

// Gmunmap releases a mapping.
func (c *BlockCtx) Gmunmap(m *Mapping) error { return m.Munmap(c.Block) }

// Gmsync writes the mapping's page back to the host. The application must
// coordinate Gmsync with updates by other threadblocks.
func (c *BlockCtx) Gmsync(m *Mapping) error { return m.Msync(c.Block) }

// Gunlink removes a file; buffer space on this GPU is reclaimed
// immediately.
func (c *BlockCtx) Gunlink(path string) error { return c.fs.Unlink(c.Block, path) }

// Gfstat retrieves file metadata from GPU-resident state; Size reflects
// the size at first Gopen, extended by local writes.
func (c *BlockCtx) Gfstat(fd int) (Info, error) { return c.fs.Fstat(c.Block, fd) }

// Gftruncate truncates the file and reclaims affected cached pages.
func (c *BlockCtx) Gftruncate(fd int, size int64) error {
	return c.fs.Ftruncate(c.Block, fd, size)
}

// ---- The generic syscall surface (ISSUE 7) ----

// GopenAhead issues Gopen ahead of need: a cold read-only open is
// dispatched as a relaxed non-blocking syscall — the block does not wait
// for the host round trip until it joins via OpenFuture.Wait — so a
// kernel can pipeline its next inputs' opens behind the current file's
// reads. Every future must be Waited exactly once; Wait returns the
// descriptor (release it with Gclose as usual). Warm or writable opens
// fall back to a plain strong Gopen at Wait time.
func (c *BlockCtx) GopenAhead(path string, flags int) *OpenFuture {
	return c.fs.OpenAhead(c.Block, path, flags)
}

// Gwait joins an open issued by GopenAhead.
func (c *BlockCtx) Gwait(of *OpenFuture) (int, error) { return of.Wait(c.Block) }

// Greaddir enumerates one page of directory entries of path, starting at
// cookie (0 for the first call) and returning at most max entries plus
// the next cookie (-1 once the enumeration is complete).
func (c *BlockCtx) Greaddir(path string, cookie int64, max int) ([]Dirent, int64, error) {
	return c.fs.Readdir(c.Block, path, cookie, max)
}

// GpreadWarp services one positioned read per thread of the block,
// coalescing each warp whose requests form a contiguous ascending span
// into a single warp-granularity syscall descriptor. Returns the total
// bytes read.
func (c *BlockCtx) GpreadWarp(fd int, reqs []WarpReq) (int64, error) {
	return c.fs.ReadWarp(c.Block, fd, reqs)
}

// GpipeOpen opens (creating on first open) the named bounded pipe with
// the given buffer capacity and declared writer count; every opener must
// declare the same capacity and writer count. Pipes live in host memory,
// so the two ends may be kernels on different GPUs.
func (c *BlockCtx) GpipeOpen(name string, mode PipeMode, capBytes, writers int) (int64, error) {
	return c.fs.PipeOpen(c.Block, name, mode, capBytes, writers)
}

// GpipeWrite writes data into the pipe as one atomic record, blocking on
// virtual time while the pipe lacks room for the whole record.
func (c *BlockCtx) GpipeWrite(pd int64, data []byte) (int, error) {
	return c.fs.PipeWrite(c.Block, pd, data)
}

// GpipeRead reads up to len(dst) buffered bytes, blocking on virtual time
// while the pipe is empty with live writers; io.EOF marks end of stream.
func (c *BlockCtx) GpipeRead(pd int64, dst []byte) (int, error) {
	return c.fs.PipeRead(c.Block, pd, dst)
}

// GpipeClose closes one end of the pipe; when the last declared writer
// closes, readers drain the buffer and then see io.EOF.
func (c *BlockCtx) GpipeClose(pd int64, mode PipeMode) error {
	return c.fs.PipeClose(c.Block, pd, mode)
}
