// Package params holds the hardware and system constants that drive the
// GPUfs simulation, calibrated to the evaluation platform of the paper
// (§5): a SuperMicro server with two 4-core Xeon L5630 CPUs, four NVIDIA
// TESLA C2075 GPUs, PCIe 2.0, and a 7200RPM WDC disk whose cached and raw
// read bandwidths were measured at 6600 MB/s and 132 MB/s respectively.
//
// All capacities and dataset sizes can be scaled down uniformly by a single
// factor so the full benchmark suite runs in seconds; because every capacity
// scales together, crossover points (GPU buffer cache overflow, CPU RAM
// overflow into the disk-bound regime) are preserved.
package params

import (
	"fmt"

	"gpufs/internal/simtime"
)

// Size helpers (bytes).
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Config captures every tunable of the simulated machine and of the GPUfs
// library itself. The zero value is not valid; start from Default().
type Config struct {
	// ---- Topology ----

	// NumGPUs is the number of discrete GPUs attached to the host.
	NumGPUs int
	// NumCPUCores is the number of host CPU cores (the paper's CPU
	// baselines use 8).
	NumCPUCores int

	// ---- GPU device model (TESLA C2075 / FERMI) ----

	// MPsPerGPU is the number of multiprocessors per GPU. The C2075 has 14.
	MPsPerGPU int
	// BlocksPerMP is how many threadblocks may be resident on one MP.
	BlocksPerMP int
	// GPUMemBytes is the device memory capacity (6 GB on the C2075).
	GPUMemBytes int64
	// GPUMemBandwidth is aggregate device-memory bandwidth (~144 GB/s).
	GPUMemBandwidth simtime.Rate
	// ScratchpadBytes is the per-block on-die scratchpad (48 KB on FERMI).
	ScratchpadBytes int64
	// KernelLaunchOverhead is the fixed virtual cost of launching a kernel.
	KernelLaunchOverhead simtime.Duration

	// ---- Interconnect (PCIe 2.0 x16) ----

	// PCIeBandwidth is the maximum achievable PCIe bandwidth; the paper
	// measured 5731 MB/s on its hardware.
	PCIeBandwidth simtime.Rate
	// DMALatency is the fixed per-transaction DMA setup latency.
	DMALatency simtime.Duration
	// DMAChannels is the number of concurrent asynchronous DMA channels
	// per GPU per direction (§4.3: "multiple asynchronous CPU-GPU
	// channels to utilize full-duplex DMA").
	DMAChannels int

	// ---- Host memory and file system ----

	// CPUMemBandwidth is the host DRAM copy bandwidth; page-cache-cached
	// file reads were measured at 6600 MB/s.
	CPUMemBandwidth simtime.Rate
	// CPURAMBytes is total host RAM. The OS, the application, and pinned
	// allocations leave roughly 7/8 of it to the page cache, which is
	// why the paper's largest matrix (11 GB on a 12 GB machine) "barely
	// fits into the CPU's RAM" and tips the workload into the disk-bound
	// regime.
	CPURAMBytes int64
	// SyscallOverhead is the fixed cost of a host file-system call.
	SyscallOverhead simtime.Duration

	// ---- Disk (WDC WD5003, 7200RPM) ----

	// DiskBandwidth is sequential disk read bandwidth (132 MB/s measured).
	DiskBandwidth simtime.Rate
	// DiskSeek is the average seek + rotational latency.
	DiskSeek simtime.Duration

	// ---- GPUfs library ----

	// PageSize is the GPU buffer cache page size (the paper explores
	// 16 KB–16 MB and settles on 128 KB–2 MB depending on workload).
	PageSize int64
	// BufferCacheBytes is the per-GPU buffer cache capacity.
	BufferCacheBytes int64
	// APICostPerPage is the GPU-side GPUfs bookkeeping cost charged per
	// page-granularity operation (radix insert, pframe init, and so on).
	// Calibrated from Figure 5's rightmost column: ~1.8 GB in 16 KB pages
	// costs ~792 ms of pure page-cache code, or ~7 µs per page.
	APICostPerPage simtime.Duration
	// RadixLookupLockFree is the memory-bandwidth-visible cost of one
	// lock-free radix-tree page lookup on a cache hit: a few dependent
	// device-memory node reads, mostly hidden by warp multiplexing.
	// Calibrated so in-cache greads reach 85-88% of raw memory bandwidth
	// (Figure 7).
	RadixLookupLockFree simtime.Duration
	// RadixLookupLocked is the serialized per-lookup cost when traversal
	// takes the tree lock; lookups of one file then serialize
	// device-wide, which is why Figure 7's locked protocol runs ~3x
	// slower.
	RadixLookupLocked simtime.Duration
	// RPCPollInterval is the mean delay before the polling CPU daemon
	// notices a new GPU request in write-shared memory (§4.3).
	RPCPollInterval simtime.Duration
	// RPCHandleCost is the CPU-side cost of dequeuing and dispatching one
	// RPC request (excluding file I/O and DMA, which are charged to their
	// own resources).
	RPCHandleCost simtime.Duration
	// RPCShards is the number of RPC request rings per GPU; threadblocks
	// hash to rings. 0 or 1 reproduces the prototype's single ring.
	RPCShards int
	// DaemonWorkers is the number of host daemon threads draining the
	// rings (the paper's multi-threaded daemon, §4.2); ring shard s is
	// pinned to worker s mod DaemonWorkers. 0 or 1 reproduces the
	// single-threaded daemon.
	DaemonWorkers int
	// Prototype selects the paper's §4 system instead of the extended one:
	// gread copies out of the buffer cache (gmmap is its zero-copy path, and
	// a read RPC's DMA is staged through host DRAM), the frame allocator has
	// one free list, and there is no read-ahead, open carry, speculative
	// reclaim, history replay or background cleaner. Off (the default), a
	// resident read is charged in place, the allocator keeps one free list
	// per multiprocessor, and all five extensions run. core.New, which
	// receives the Config whole, is the one place the switch is read.
	Prototype bool
	// ForceLockedTraversal disables lock-free radix-tree reads on every
	// GPU, reproducing Figure 7's locked baseline.
	ForceLockedTraversal bool
	// DisableFastReopen forces reopens of closed-table files through the
	// full host RPC path (ablation of the §4.1 closed-table
	// optimization).
	DisableFastReopen bool
	// CkptMaxBytes bounds the bytes a checkpoint may capture by value
	// (its dirty pages). A capture that exceeds it fails
	// with ckpt.ErrBudget and the remediator falls back to
	// drain+restart. 0 means unlimited.
	CkptMaxBytes int64

	// ---- Compute calibration ----

	// GPUFlops is the achieved application GPU throughput; the image
	// search workload sustains 18 GFLOP/s (§5.2.1).
	GPUFlops float64
	// CPUFlops is the achieved 8-core CPU throughput on the same
	// workload; the paper reports the GPU is 2x an 8-core CPU, i.e.
	// 9 GFLOP/s.
	CPUFlops float64
	// GrepGPURate is the GPU string-match throughput in byte·word
	// comparisons per second (the brute-force cost is dictionary words x
	// text bytes). Calibrated from Table 4: 58,000 words over the 6 MB
	// Shakespeare input in ~40 s gives ~8.7e9; the same rate predicts
	// ~56 min for the 524 MB Linux tree, matching the measured 53 min.
	GrepGPURate float64
	// GrepCPURate is the 8-core CPU rate; Table 4 has the GPU ~7x faster.
	GrepCPURate float64

	// Scale is the uniform down-scaling factor applied to capacities and
	// (by convention) to workload sizes. 1.0 reproduces paper-scale runs.
	Scale float64
}

// Default returns the configuration matching the paper's testbed at the
// given scale factor in (0, 1]. Capacities (GPU memory, buffer cache, CPU
// RAM) are multiplied by scale; rates, latencies and per-op costs are not,
// so time-per-byte relationships are untouched.
func Default() Config {
	return Config{
		NumGPUs:     4,
		NumCPUCores: 8,

		MPsPerGPU:            14,
		BlocksPerMP:          2,
		GPUMemBytes:          6 * GB,
		GPUMemBandwidth:      144_000 * simtime.MBps,
		ScratchpadBytes:      48 * KB,
		KernelLaunchOverhead: 10 * simtime.Microsecond,

		PCIeBandwidth: 5731 * simtime.MBps,
		DMALatency:    15 * simtime.Microsecond,
		DMAChannels:   4,

		CPUMemBandwidth: 6600 * simtime.MBps,
		CPURAMBytes:     12 * GB,
		SyscallOverhead: 4 * simtime.Microsecond,

		DiskBandwidth: 132 * simtime.MBps,
		DiskSeek:      8 * simtime.Millisecond,

		PageSize:            256 * KB,
		BufferCacheBytes:    2 * GB,
		APICostPerPage:      7 * simtime.Microsecond,
		RadixLookupLockFree: 35 * simtime.Nanosecond,
		RadixLookupLocked:   550 * simtime.Nanosecond,
		RPCPollInterval:     10 * simtime.Microsecond,
		RPCHandleCost:       12 * simtime.Microsecond,

		GPUFlops: 18e9,
		CPUFlops: 9e9,

		GrepGPURate: 8.7e9,
		GrepCPURate: 1.25e9,

		Scale: 1.0,
	}
}

// Scaled returns Default() scaled down by the given factor.
func Scaled(scale float64) Config {
	c := Default()
	c.ApplyScale(scale)
	return c
}

// ApplyScale rescales the capacity-like fields by factor and records it in
// c.Scale. It panics on a non-positive factor.
func (c *Config) ApplyScale(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("params: non-positive scale %v", factor))
	}
	c.Scale = factor
	c.GPUMemBytes = scaleBytes(c.GPUMemBytes, factor)
	c.CPURAMBytes = scaleBytes(c.CPURAMBytes, factor)
	c.BufferCacheBytes = scaleBytes(c.BufferCacheBytes, factor)
}

// ScaleBytes scales a workload size by the config's scale factor, rounding
// to at least one byte.
func (c *Config) ScaleBytes(n int64) int64 { return scaleBytes(n, c.Scale) }

// ScaleCount scales an item count (for example a number of files) by the
// config's scale factor, rounding to at least one.
func (c *Config) ScaleCount(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

func scaleBytes(n int64, factor float64) int64 {
	s := int64(float64(n) * factor)
	if s < 1 {
		s = 1
	}
	return s
}

// MaxResidentBlocks reports how many threadblocks a single GPU can execute
// concurrently.
func (c *Config) MaxResidentBlocks() int { return c.MPsPerGPU * c.BlocksPerMP }

// Validate checks the configuration for internally inconsistent settings.
func (c *Config) Validate() error {
	switch {
	case c.NumGPUs < 1:
		return fmt.Errorf("params: NumGPUs must be >= 1, got %d", c.NumGPUs)
	case c.MPsPerGPU < 1:
		return fmt.Errorf("params: MPsPerGPU must be >= 1, got %d", c.MPsPerGPU)
	case c.BlocksPerMP < 1:
		return fmt.Errorf("params: BlocksPerMP must be >= 1, got %d", c.BlocksPerMP)
	case c.PageSize < 512:
		return fmt.Errorf("params: PageSize must be >= 512, got %d", c.PageSize)
	case c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("params: PageSize must be a power of two, got %d", c.PageSize)
	case c.BufferCacheBytes < c.PageSize:
		return fmt.Errorf("params: BufferCacheBytes %d smaller than one page %d",
			c.BufferCacheBytes, c.PageSize)
	case c.GPUMemBytes < c.BufferCacheBytes:
		return fmt.Errorf("params: GPU memory %d smaller than buffer cache %d",
			c.GPUMemBytes, c.BufferCacheBytes)
	case c.PCIeBandwidth <= 0:
		return fmt.Errorf("params: PCIeBandwidth must be positive")
	case c.DiskBandwidth <= 0:
		return fmt.Errorf("params: DiskBandwidth must be positive")
	case c.CPUMemBandwidth <= 0:
		return fmt.Errorf("params: CPUMemBandwidth must be positive")
	case c.RPCShards < 0:
		return fmt.Errorf("params: RPCShards must be >= 0, got %d", c.RPCShards)
	case c.DaemonWorkers < 0:
		return fmt.Errorf("params: DaemonWorkers must be >= 0, got %d", c.DaemonWorkers)
	case c.Scale <= 0:
		return fmt.Errorf("params: Scale must be positive, got %v", c.Scale)
	}
	return nil
}
