// Package core implements GPUfs itself: the GPU-side file system library of
// the paper. It maintains the open and closed file tables, the per-file
// buffer caches (radix trees over a shared frame pool), and implements the
// API of Table 1 — gopen, gclose, gread, gwrite, gfsync, gmmap, gmunmap,
// gmsync, gunlink, gfstat, gftruncate — with the paper's relaxed,
// data-parallel-friendly semantics:
//
//   - Calls are collective at threadblock granularity (the prototype's
//     granularity, §4): every thread of a block is assumed to reach the
//     call together, and the implementation is invoked once per block.
//   - File descriptors denote files, not opens: all blocks (and kernels)
//     opening the same file share one descriptor and one reference count.
//   - Reads and writes carry explicit offsets (pread/pwrite style); there
//     are no seek pointers.
//   - gclose does not synchronize; dirty pages reach the host only via
//     gfsync/gmsync or buffer-cache eviction.
//   - Consistency is locality-optimized and weak: pages cached on a GPU are
//     read and written locally; other processors observe the writes only
//     after a sync on the writer and a re-open on the reader.
package core

import (
	"slices"
	"strconv"
	"sync/atomic"

	"gpufs/internal/core/pcache"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/memsys"
	"gpufs/internal/metrics"
	"gpufs/internal/params"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Open flags. The lower bits coincide with the host flags; the O_G* flags
// are the GPUfs-specific additions of §3.2.
const (
	O_RDONLY = hostfs.O_RDONLY
	O_WRONLY = hostfs.O_WRONLY
	O_RDWR   = hostfs.O_RDWR
	O_CREATE = hostfs.O_CREATE
	O_TRUNC  = hostfs.O_TRUNC

	// O_GWRONCE creates a write-only file in which the application
	// writes each byte at most once; GPUfs never fetches its content
	// from the CPU and write-back diffs against implicit zeros.
	O_GWRONCE = 0x10000
	// O_GWRSHARED opens a writable file for concurrent write-sharing
	// across processors using the general diff-and-merge protocol: a
	// pristine copy is kept per page and only locally modified bytes are
	// propagated at sync. (The paper describes this protocol in §3.1 and
	// leaves it unimplemented in the prototype; this implementation
	// includes it.)
	O_GWRSHARED = 0x20000
	// O_NOSYNC creates a temporary file private to this GPU: its data is
	// never written back except under cache pressure, and it is unlinked
	// from the host on final close.
	O_NOSYNC = 0x40000

	hostFlagMask = 0xFFFF
)

// Options configures one GPU's GPUfs instance.
type Options struct {
	// Config is the machine, passed whole. Core reads the buffer cache's
	// geometry (PageSize, BufferCacheBytes), the GPUfs cost constants, the
	// two ablations (ForceLockedTraversal, DisableFastReopen), CkptMaxBytes,
	// MPsPerGPU and Prototype, which New alone resolves (see there).
	params.Config
	// EvictBatch is how many pages one paging pass tries to reclaim.
	EvictBatch int
	// Metrics, when non-nil, attaches this GPU's counters and latency
	// histograms to the registry. Metrics are observation-only: they
	// record virtual timestamps already computed by the simulation and
	// never acquire resources, so timing is bit-identical with or without
	// them. Nil keeps every hook at a single pointer test.
	Metrics *metrics.Registry
	// Syscalls is the host syscall service (the syscall table and the host
	// descriptor table) shared by the system's GPUs. Nil builds a private
	// service over the client's server; file semantics are identical.
	Syscalls *gsys.Service
}

// FS is the GPUfs instance of a single GPU: the top software layer of
// Figure 2, resident in GPU memory and linked into the application kernel.
type FS struct {
	gpuID int
	opt   Options
	sys   *gsys.Client
	cache *pcache.Cache

	// ft holds the open and closed file tables (ftable.go).
	ft *ftable

	// Retired-tree stats accumulate counters of trees that were
	// invalidated or unlinked, so totals survive cache discards.
	retiredLockFree atomic.Int64
	retiredLocked   atomic.Int64

	opens        atomic.Int64
	hostOpens    atomic.Int64
	closedReuses atomic.Int64

	// Speculation and cleaning accounting (ISSUE 4): pages issued by
	// read-ahead, pages consumed by a later demand access, pages
	// reclaimed unconsumed, pages the background cleaner made clean or
	// free, and cleaner wake-ups.
	prefetchIssued atomic.Int64
	prefetchUsed   atomic.Int64
	prefetchWasted atomic.Int64
	cleanedPages   atomic.Int64
	cleanerKicks   atomic.Int64

	// openFilled counts pages a host open brought in with it (offer/accept in
	// page.go). They stay out of the prefetch counters above: those are the
	// stride detector's feedback loop, and it did not issue these.
	openFilled atomic.Int64

	// specReclaimed counts closed files' clean pages a confirmed stream's
	// speculation reclaimed for itself (reclaimForSpec in paging.go).
	specReclaimed atomic.Int64

	// dirtyPages counts resident pages whose Frame.Dirty is set, over every
	// file: the sum of fileCache.dirty, kept by setDirty for the cleaner.
	dirtyPages atomic.Int64

	// History accounting (ISSUE 9), surfaced as CacheStats.Replay* and
	// HistoryReplays: pages issued on a recorded profile's word (a subset of
	// prefetchIssued), their used/wasted outcomes, and opens that started
	// from a profile.
	historyIssued  atomic.Int64
	historyUsed    atomic.Int64
	historyWasted  atomic.Int64
	historyReplays atomic.Int64

	// speculate turns on every route ahead of demand but a read's batch;
	// the planner's gate (ahead) is its one reader.
	speculate bool

	// specPending gauges speculative pages currently in the cache that no
	// demand access has consumed yet. The adaptive engine caps it at a
	// quarter of the frame pool, so speculation can never thrash resident
	// demand data out of a tight cache.
	specPending atomic.Int64

	// cacheHits and cacheMisses count getPage outcomes: a hit finds the
	// page resident, a miss faults it in (the initializer path).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// inPlace charges a read of a resident page as served in place from the
	// pinned frame (copyOut); off under the prototype, whose gread copies.
	inPlace bool
	// zeroCopyReads counts page reads charged as in place (one
	// device-memory pass, see copyOut), one per page served.
	zeroCopyReads atomic.Int64

	// Checkpoint accounting: bytes captured by value, by-reference pages
	// dropped at commit validation, and captured page counts by class.
	ckptSnapshotBytes   atomic.Int64
	ckptValidationDrops atomic.Int64
	ckptPagesDirty      atomic.Int64
	ckptPagesClean      atomic.Int64

	// met holds pre-resolved metrics handles; nil when Options.Metrics is.
	met *fsMetrics

	// cleaner is the background writeback engine; nil under the prototype,
	// where all write-back happens under eviction, on the faulting block's
	// clock.
	cleaner *cleaner

	// tracer, when non-nil and enabled, records every API call.
	tracer *trace.Tracer
}

// New creates the GPUfs instance for one GPU, carving the buffer cache out
// of the device's memory arena. It is the one place the machine's Prototype
// switch is read. The extended system (the default) keeps one allocator shard
// per multiprocessor — lanes (threadblocks and the cleaner) hash by index, so
// that is the hardware's concurrency — charges a resident read in place and a
// fill's DMA unstaged (the buffer cache is pinned), and speculates (§3.3: a
// stride detector, the fault and open carries, history replay) and runs the
// background cleaner. The prototype (§4) has one free list, copies out of the
// cache, stages a fill's DMA through host DRAM and has neither.
func New(gpuID int, opt Options, client *rpc.Client, mem *memsys.Arena) (*FS, error) {
	if opt.EvictBatch <= 0 {
		opt.EvictBatch = 16
	}
	extended := !opt.Prototype
	shards := opt.MPsPerGPU
	if !extended {
		shards = 1
	}
	cache, err := pcache.NewSharded(mem, opt.BufferCacheBytes, opt.PageSize, shards)
	if err != nil {
		return nil, err
	}
	svc := opt.Syscalls
	if svc == nil {
		svc = gsys.NewService(client.Server())
	}
	fs := &FS{
		gpuID:     gpuID,
		opt:       opt,
		sys:       gsys.NewClient(svc, client, extended),
		cache:     cache,
		ft:        newFTable(),
		speculate: extended,
		inPlace:   extended,
	}
	if extended {
		fs.cleaner = newCleaner(fs)
	}
	if opt.Metrics != nil {
		fs.attachMetrics(opt.Metrics)
	}
	return fs, nil
}

// fsMetrics holds one GPU's pre-resolved instrument handles. Only the op
// histograms sit on a hot path; the counters are func collectors over the
// atomics the FS maintains anyway, so enabling metrics adds no per-call
// work beyond the histogram observations.
type fsMetrics struct {
	// op is indexed by trace.Op; entries are nil for ops this layer never
	// records (serve-level ops, faults, retries).
	op []*metrics.Histogram
}

// attachMetrics registers the FS's counters with the registry and resolves
// the per-op latency histogram handles. Histogram op labels reuse the trace
// package's op names (gopen, gread, ...), so metrics and traces agree.
func (fs *FS) attachMetrics(reg *metrics.Registry) {
	gpuL := strconv.Itoa(fs.gpuID)
	reg.SetHelp("gpufs_core_op_seconds", "Virtual latency of GPUfs API calls, labelled by op name")
	reg.SetHelp("gpufs_core_cache_hits_total", "Buffer-cache page accesses served from a resident frame")
	reg.SetHelp("gpufs_core_cache_misses_total", "Buffer-cache page accesses that faulted the page in")
	reg.SetHelp("gpufs_core_evictions_total", "Frames reclaimed by the paging algorithm")
	reg.SetHelp("gpufs_core_prefetch_issued_total", "Pages issued speculatively by read-ahead")
	reg.SetHelp("gpufs_core_prefetch_used_total", "Speculative pages later consumed by a demand access")
	reg.SetHelp("gpufs_core_prefetch_wasted_total", "Speculative pages reclaimed unconsumed")
	reg.SetHelp("gpufs_core_open_filled_pages_total", "Pages a host gopen carried in with its own ring transaction")
	reg.SetHelp("gpufs_core_spec_reclaimed_pages_total", "Closed files' clean pages reclaimed by read-ahead for its own speculation")
	reg.SetHelp("gpufs_core_cleaned_pages_total", "Pages the background cleaner wrote back or pre-evicted")
	reg.SetHelp("gpufs_core_cleaner_kicks_total", "Background-cleaner wake-ups")
	reg.SetHelp("gpufs_core_opens_total", "gopen calls")
	reg.SetHelp("gpufs_core_host_opens_total", "gopen calls forwarded to the CPU")
	reg.SetHelp("gpufs_core_closed_reuses_total", "Reopens served from the closed file table")
	reg.SetHelp("gpufs_core_spec_pending", "Speculative pages resident but not yet consumed")
	reg.SetHelp("gpufs_core_zero_copy_reads_total", "Cache-hit page reads served in place from the pinned frame")
	reg.SetHelp("gpufs_core_frame_steals_total", "Frame allocations satisfied by stealing from another shard")
	reg.SetHelp("gpufs_core_leaf_recycles_total", "Radix leaves reused from the epoch-reclaimed pool")
	reg.SetHelp("gpufs_core_replay_issued_total", "Pages issued on a recorded access profile's word (open-time pre-warm, seeded first access)")
	reg.SetHelp("gpufs_core_replay_used_total", "Profile-issued pages later consumed by a demand access")
	reg.SetHelp("gpufs_core_replay_wasted_total", "Profile-issued pages reclaimed unconsumed")
	reg.SetHelp("gpufs_core_history_replays_total", "Opens that started from a recorded access profile")
	reg.SetHelp("gpufs_ckpt_snapshot_bytes_total", "Bytes captured by value into checkpoint images")
	reg.SetHelp("gpufs_ckpt_validation_drops_total", "Speculated clean pages dropped at commit because the host moved")
	reg.SetHelp("gpufs_ckpt_pages_dirty_total", "Dirty pages captured by value into checkpoint images")
	reg.SetHelp("gpufs_ckpt_pages_clean_total", "Clean pages captured by reference that survived validation")

	reg.CounterFunc("gpufs_core_cache_hits_total", fs.cacheHits.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_cache_misses_total", fs.cacheMisses.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_evictions_total", fs.cache.Reclaimed, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_issued_total", fs.prefetchIssued.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_used_total", fs.prefetchUsed.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_wasted_total", fs.prefetchWasted.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_open_filled_pages_total", fs.openFilled.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_spec_reclaimed_pages_total", fs.specReclaimed.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_cleaned_pages_total", fs.cleanedPages.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_cleaner_kicks_total", fs.cleanerKicks.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_opens_total", fs.opens.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_host_opens_total", fs.hostOpens.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_closed_reuses_total", fs.closedReuses.Load, "gpu", gpuL)
	reg.GaugeFunc("gpufs_core_spec_pending", fs.specPending.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_zero_copy_reads_total", fs.zeroCopyReads.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_frame_steals_total", fs.cache.Steals, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_leaf_recycles_total", fs.leafRecycles, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_replay_issued_total", fs.historyIssued.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_replay_used_total", fs.historyUsed.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_replay_wasted_total", fs.historyWasted.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_history_replays_total", fs.historyReplays.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_snapshot_bytes_total", fs.ckptSnapshotBytes.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_validation_drops_total", fs.ckptValidationDrops.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_pages_dirty_total", fs.ckptPagesDirty.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_pages_clean_total", fs.ckptPagesClean.Load, "gpu", gpuL)

	ops := []trace.Op{
		trace.OpOpen, trace.OpClose, trace.OpRead, trace.OpWrite,
		trace.OpFsync, trace.OpMmap, trace.OpMunmap, trace.OpMsync,
		trace.OpUnlink, trace.OpFstat, trace.OpFtruncate,
		trace.OpEvict, trace.OpPrefetch, trace.OpClean,
	}
	m := &fsMetrics{op: make([]*metrics.Histogram, slices.Max(ops)+1)}
	for _, op := range ops {
		m.op[op] = reg.DurationHistogram("gpufs_core_op_seconds",
			"gpu", gpuL, "op", op.String())
	}
	fs.met = m
}

// observeOp records an op's virtual span; a no-op when metrics are off or
// the op is not instrumented at this layer.
func (m *fsMetrics) observeOp(op trace.Op, start, end simtime.Time) {
	if m == nil || int(op) >= len(m.op) {
		return
	}
	m.op[op].ObserveSpan(start, end)
}

// GPUID reports the owning GPU's index.
func (fs *FS) GPUID() int { return fs.gpuID }

// PageSize reports the buffer-cache page size.
func (fs *FS) PageSize() int64 { return fs.opt.PageSize }

// Cache exposes the frame pool (stats and tests).
func (fs *FS) Cache() *pcache.Cache { return fs.cache }

// Client exposes the RPC transport endpoint (stats and tests).
func (fs *FS) Client() *rpc.Client { return fs.sys.RPC() }

// Syscalls exposes the syscall endpoint (workloads and tests).
func (fs *FS) Syscalls() *gsys.Client { return fs.sys }

// lane returns the syscall client view bound to the block's home ring
// shard, so a threadblock's calls keep FIFO order on one ring while
// blocks on different shards overlap across daemon workers. Strong
// ordering (the default for every call below) blocks the lane's clock.
// The view is a value: binding per call costs a copy, not an allocation.
func (fs *FS) lane(b *gpu.Block) gsys.Client { return fs.sys.Bind(b.Idx) }

// ResidentPages reports how many buffer-cache pages of path are resident
// on this GPU, whether the file is currently open or retired to the closed
// file table. A serving layer uses it as its cache-affinity signal: a job
// over a file with resident pages is cheaper to run here than anywhere
// else.
func (fs *FS) ResidentPages(path string) int64 {
	if fc := fs.ft.cacheOf(path); fc != nil {
		return fc.frames.Load()
	}
	return 0
}

// Stats aggregates instrumentation across live and retired file caches.
type Stats struct {
	// LockFreeAccesses and LockedAccesses count radix-tree lookups by
	// protocol (Table 2; the locked count includes unlocked retries that
	// fell back).
	LockFreeAccesses int64
	LockedAccesses   int64
	// PagesReclaimed counts frames reclaimed by the paging algorithm.
	PagesReclaimed int64
	// Opens counts gopen calls; HostOpens counts those forwarded to the
	// CPU (the difference is coalescing plus reference counting).
	Opens     int64
	HostOpens int64
	// ClosedTableReuses counts reopens served from the closed file table.
	ClosedTableReuses int64
	// RPCRequests is the total RPC count to the host daemon.
	RPCRequests int64
	// RPCRetries and RPCTimeouts count the retry protocol's activity
	// (nonzero only under fault injection).
	RPCRetries  int64
	RPCTimeouts int64
	// FaultsInjected is the machine-wide injected-fault total.
	FaultsInjected int64
}

// CacheStats are the speculation and cleaning counters of ISSUE 4,
// surfaced per GPU by the serving layer next to its affinity hit rate.
type CacheStats struct {
	// PrefetchIssued counts pages issued speculatively by read-ahead.
	// Multi-page gread batching is NOT counted:
	// those pages are known-needed pipelining, not a guess.
	PrefetchIssued int64
	// PrefetchUsed counts speculative pages later consumed by a demand
	// access; PrefetchWasted counts those reclaimed unconsumed.
	PrefetchUsed   int64
	PrefetchWasted int64
	// CleanedPages counts pages the background cleaner wrote back or
	// pre-evicted; CleanerKicks counts cleaner wake-ups.
	CleanedPages int64
	CleanerKicks int64
	// ReplayIssued/Used/Wasted count pages issued on a recorded profile's
	// word — the open-time pre-warm and a seeded stream's first access
	// (a subset of the Prefetch* counters above); HistoryReplays counts
	// opens that started from a profile (ISSUE 9).
	ReplayIssued   int64
	ReplayUsed     int64
	ReplayWasted   int64
	HistoryReplays int64
	// OpenFilled counts pages that rode in with their file's host gopen: a
	// file that fits one coalesced span costs one ring transaction, not two.
	// They are not speculation and appear in no Prefetch* counter.
	OpenFilled int64
	// SpecReclaimed counts pages reclaimed by read-ahead for its own
	// speculation when the frame pool was dry: clean pages of closed files,
	// never an open file's and never one that needed a write-back. They are
	// also in the paging algorithm's pages reclaimed.
	SpecReclaimed int64
}

// CkptStats are the checkpoint engine's counters (ISSUE 10).
type CkptStats struct {
	// SnapshotBytes counts bytes captured by value into images.
	SnapshotBytes int64
	// ValidationDrops counts by-reference clean pages dropped at commit
	// because the host (ino, generation) moved underneath.
	ValidationDrops int64
	// PagesDirty and PagesClean count captured pages by class.
	PagesDirty int64
	PagesClean int64
}

// CkptStats snapshots the checkpoint counters.
func (fs *FS) CkptStats() CkptStats {
	return CkptStats{
		SnapshotBytes:   fs.ckptSnapshotBytes.Load(),
		ValidationDrops: fs.ckptValidationDrops.Load(),
		PagesDirty:      fs.ckptPagesDirty.Load(),
		PagesClean:      fs.ckptPagesClean.Load(),
	}
}

// ZeroCopyReads reports how many page reads were charged as served in place
// from the pinned frame (zero under the prototype).
func (fs *FS) ZeroCopyReads() int64 { return fs.zeroCopyReads.Load() }

// FrameSteals reports allocations satisfied by stealing a frame from
// another shard's free list (0 with a single shard).
func (fs *FS) FrameSteals() int64 { return fs.cache.Steals() }

// leafRecycles sums recycled-leaf counts across live and closed file
// caches (metrics collector; recycling only happens under churn).
func (fs *FS) leafRecycles() int64 {
	var n int64
	fs.ft.each(func(fc *fileCache, _ string, _ int, _ *file) { n += fc.tree.Recycles() })
	return n
}

// CacheStats snapshots the speculation and cleaning counters.
func (fs *FS) CacheStats() CacheStats {
	return CacheStats{
		PrefetchIssued: fs.prefetchIssued.Load(),
		PrefetchUsed:   fs.prefetchUsed.Load(),
		PrefetchWasted: fs.prefetchWasted.Load(),
		CleanedPages:   fs.cleanedPages.Load(),
		CleanerKicks:   fs.cleanerKicks.Load(),
		ReplayIssued:   fs.historyIssued.Load(),
		ReplayUsed:     fs.historyUsed.Load(),
		ReplayWasted:   fs.historyWasted.Load(),
		HistoryReplays: fs.historyReplays.Load(),
		OpenFilled:     fs.openFilled.Load(),
		SpecReclaimed:  fs.specReclaimed.Load(),
	}
}

// Snapshot gathers current statistics.
func (fs *FS) Snapshot() Stats {
	s := Stats{
		LockFreeAccesses:  fs.retiredLockFree.Load(),
		LockedAccesses:    fs.retiredLocked.Load(),
		PagesReclaimed:    fs.cache.Reclaimed(),
		Opens:             fs.opens.Load(),
		HostOpens:         fs.hostOpens.Load(),
		ClosedTableReuses: fs.closedReuses.Load(),
		RPCRetries:        fs.sys.RPC().Retries(),
		RPCTimeouts:       fs.sys.RPC().Timeouts(),
	}
	fs.ft.each(func(fc *fileCache, _ string, _ int, _ *file) {
		lf, lk := fc.tree.Stats()
		s.LockFreeAccesses += lf
		s.LockedAccesses += lk
	})
	return s
}
