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
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"gpufs/internal/core/pcache"
	"gpufs/internal/core/radix"
	"gpufs/internal/gpu"
	"gpufs/internal/gsys"
	"gpufs/internal/hostfs"
	"gpufs/internal/memsys"
	"gpufs/internal/metrics"
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
	// PageSize is the buffer-cache page size.
	PageSize int64
	// CacheBytes is the buffer-cache capacity (raw data array size).
	CacheBytes int64
	// APICostPerPage is the virtual cost of per-page bookkeeping.
	APICostPerPage simtime.Duration
	// RadixLookupLockFree and RadixLookupLocked are per-attempt lookup
	// costs; locked lookups additionally serialize on the file's tree.
	RadixLookupLockFree simtime.Duration
	RadixLookupLocked   simtime.Duration
	// ForceLockedTraversal disables the lock-free read protocol,
	// reproducing Figure 7's locked baseline.
	ForceLockedTraversal bool
	// ReadAheadAdaptive enables read-ahead (§3.3): a per-open-file pattern
	// detector whose sequential or strided access streaks ramp a
	// speculation window up Linux-style (and wasted prefetch shrinks it),
	// whose stride-1 windows coalesce into multi-page RPCs, and which
	// speculates nothing on random access. What the detector knew at the
	// final gclose (per stream: first page, stride, window) is kept in a
	// bounded FS-level profile table, and a re-open of an unchanged file
	// (same host generation and size) starts from it — see history.go.
	// False is the prototype's setting: no read-ahead.
	ReadAheadAdaptive bool
	// CleanerWorkers is the number of background writeback-cleaner lanes.
	// When the free-frame pool drops below the low watermark, a demand
	// fault kicks an idle lane, which — on its own virtual clock, so the
	// faulting threadblock pays nothing — writes back cold dirty pages and
	// pre-evicts closed-file frames until the high watermark. 0 disables
	// the cleaner: all write-back happens synchronously under eviction,
	// on the faulting block's clock.
	CleanerWorkers int
	// DisableFastReopen forces every gopen to take the full host-RPC
	// path even when the closed file table holds a valid cache
	// (ablation: the cost of the closed-table optimization of §4.1).
	DisableFastReopen bool
	// EvictBatch is how many pages one paging pass tries to reclaim.
	EvictBatch int
	// ZeroCopyRead selects two charges; the bytes move the same way either
	// way. Set, a read of a resident page costs one device-memory pass (the
	// caller reads the pinned frame in place — the gmmap mechanism) and a
	// fill's DMA skips the staging pass on the host memory bus (the daemon
	// preads into the pinned frame). Clear, the hit costs a two-pass copy
	// and the DMA is staged. The DMA half lives in the syscall service: New
	// passes the flag to the private service it builds when Syscalls is
	// nil, and a shared service must have been built with the same value.
	ZeroCopyRead bool
	// FrameShards is the number of free-list shards in the frame
	// allocator; lanes hash to shards and steal on empty. Values < 1
	// select 1.
	FrameShards int
	// CkptMaxBytes bounds the bytes a checkpoint may capture by value
	// (dirty pages plus pipe buffers); a capture that would exceed it
	// fails with ckpt.ErrBudget and the caller falls back to
	// drain+restart. 0 means unlimited.
	CkptMaxBytes int64
	// Metrics, when non-nil, attaches this GPU's counters and latency
	// histograms to the registry. Metrics are observation-only: they
	// record virtual timestamps already computed by the simulation and
	// never acquire resources, so timing is bit-identical with or without
	// them. Nil keeps every hook at a single pointer test.
	Metrics *metrics.Registry
	// Syscalls is the host syscall service (table + pipes) shared by the
	// system's GPUs. Nil builds a private service over the client's
	// server — file semantics are identical; only cross-GPU pipes need
	// the shared table.
	Syscalls *gsys.Service
}

// FS is the GPUfs instance of a single GPU: the top software layer of
// Figure 2, resident in GPU memory and linked into the application kernel.
type FS struct {
	gpuID int
	opt   Options
	sys   *gsys.Client
	cache *pcache.Cache

	mu     sync.Mutex
	byPath map[string]int // path -> fd for open files
	fds    []*file        // fd -> open file (nil when slot closed)
	closed map[int64]*fileCache
	// closedByPath indexes the closed file table by pathname for the
	// fast-reopen check in Open.
	closedByPath map[string]int64
	// truncated records paths already truncated by an O_TRUNC open, so a
	// re-open by a late-scheduled threadblock (after the reference count
	// transiently hit zero, §3.2) does not destroy earlier blocks'
	// output by truncating again.
	truncated map[string]bool

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

	// dirtyPages counts resident pages whose Frame.Dirty is set, over every
	// file: the sum of fileCache.dirty, kept by setDirty for the cleaner.
	dirtyPages atomic.Int64

	// History accounting (ISSUE 9), surfaced as CacheStats.Replay* and
	// History*: pages issued on a recorded profile's word (a subset of
	// prefetchIssued), their used/wasted outcomes, opens that started from
	// a profile, and profiles dropped because the host copy changed
	// between opens.
	historyIssued        atomic.Int64
	historyUsed          atomic.Int64
	historyWasted        atomic.Int64
	historyReplays       atomic.Int64
	historyInvalidations atomic.Int64

	// history is the per-file access-profile table the read-ahead
	// detector records into at gclose and seeds from at gopen; nil when
	// Options.ReadAheadAdaptive is off.
	history *historyTable

	// specPending gauges speculative pages currently in the cache that no
	// demand access has consumed yet. The adaptive engine caps it at a
	// quarter of the frame pool, so speculation can never thrash resident
	// demand data out of a tight cache.
	specPending atomic.Int64

	// cacheHits and cacheMisses count getPage outcomes: a hit finds the
	// page resident, a miss faults it in (the initializer path).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// zeroCopyReads counts page reads charged as in place (one
	// device-memory pass, see copyOut), one per page served. Kept out of
	// CacheStats: the metamorphic suite asserts CacheStats equality across
	// the ZeroCopyRead knob.
	zeroCopyReads atomic.Int64

	// gpread_warp accounting (ISSUE 7): calls, warps coalesced into one
	// descriptor, and total descriptors issued.
	warpReadCalls   atomic.Int64
	warpCoalesced   atomic.Int64
	warpDescriptors atomic.Int64

	// capture is the in-progress checkpoint's copy-on-write rendezvous
	// (ISSUE 10); nil whenever no checkpoint is running, which keeps the
	// gwrite hot path at a single atomic load.
	capture atomic.Pointer[ckptCapture]

	// Checkpoint accounting (ISSUE 10): bytes captured by value, pages
	// preserved by the write-fault hook, by-reference pages dropped at
	// commit validation, and captured page counts by class.
	ckptSnapshotBytes   atomic.Int64
	ckptCoWFaults       atomic.Int64
	ckptValidationDrops atomic.Int64
	ckptPagesDirty      atomic.Int64
	ckptPagesClean      atomic.Int64

	// pipeNames maps pipe handles to names for tracing (guarded by mu).
	pipeNames map[int64]string

	// met holds pre-resolved metrics handles; nil when Options.Metrics is.
	met *fsMetrics

	// cleaner is the background writeback engine; nil when
	// Options.CleanerWorkers is 0.
	cleaner *cleaner

	// tracer, when non-nil and enabled, records every API call.
	tracer *trace.Tracer
}

// file is an entry in the open file table.
type file struct {
	fc *fileCache

	path      string
	flags     int
	writeOnce bool
	writeShrd bool
	noSync    bool
	writable  bool
	readable  bool
	unlinked  bool // gunlink'd while open; discard cache at final close

	hostFd int64
	refs   int // threadblock reference count

	// opening coordination: concurrent gopens of the same file coalesce
	// into one host open; waiters block on ready.
	ready chan struct{}
	err   error

	// ra are the adaptive read-ahead detector slots: threadblocks hash by
	// index, so each slot sees one (or a few) blocks' access stream
	// rather than the chaotic interleaving of all of them — the reason
	// the paper dismissed per-file stride detection (§3.3).
	ra [raStreams]raStream
}

// fileCache is a file's GPU-resident cache state. It survives gclose in the
// closed file table (keyed by host inode) so that threadblocks scheduled
// later — or subsequent kernels of the same process — reuse the cached
// pages (§4.1, §5.1.3).
type fileCache struct {
	tree    *radix.Tree
	lockRes *simtime.Resource // serializes locked traversals in virtual time

	ino  int64
	path string

	// gen is the host generation the cache contents correspond to,
	// refreshed after this GPU propagates writes.
	gen atomic.Int64

	// size is the file size as seen by gfstat: captured at the first
	// gopen and extended by local writes.
	size atomic.Int64

	// frames counts resident pages, so the eviction policy can skip
	// empty caches cheaply.
	frames atomic.Int64

	// dirty counts resident pages with local writes the host lacks, so a
	// cleaner pass can skip a file that has none (see setDirty).
	dirty atomic.Int64

	// keepFd is the host descriptor retained after the last gclose (the
	// open file table stores "the CPU file descriptor used for data
	// requests", §4.1, and keeping it is what makes reopening a
	// closed-table entry free of CPU communication); 0 when none.
	// Atomic: mutated on reuse/discard paths that run outside the table
	// lock while the paging victim scan reads it.
	keepFd atomic.Int64
	// lastFlags records the flags of the retired open, so a reopen with
	// identical flags can take the fast path.
	lastFlags int

	// prefetchUsed and prefetchWasted count this file's speculative pages
	// consumed by a demand access versus reclaimed unconsumed; the
	// adaptive read-ahead window uses the ratio as its feedback signal.
	prefetchUsed   atomic.Int64
	prefetchWasted atomic.Int64

	// wbErr is the sticky asynchronous write-back error (POSIX errseq_t
	// semantics): when eviction-driven write-back fails, the error is
	// recorded here and surfaced exactly once — at the next gfsync, or at
	// the final gclose if no sync intervenes.
	wbMu  sync.Mutex
	wbErr error
}

// recordWriteErr notes an asynchronous write-back failure; the first error
// wins until a sync reports it.
func (fc *fileCache) recordWriteErr(err error) {
	if err == nil {
		return
	}
	fc.wbMu.Lock()
	if fc.wbErr == nil {
		fc.wbErr = err
	}
	fc.wbMu.Unlock()
}

// takeWriteErr returns the pending write-back error and clears it, so each
// failure is reported exactly once.
func (fc *fileCache) takeWriteErr() error {
	fc.wbMu.Lock()
	err := fc.wbErr
	fc.wbErr = nil
	fc.wbMu.Unlock()
	return err
}

// New creates the GPUfs instance for one GPU, carving the buffer cache out
// of the device's memory arena.
func New(gpuID int, opt Options, client *rpc.Client, mem *memsys.Arena) (*FS, error) {
	if opt.EvictBatch <= 0 {
		opt.EvictBatch = 16
	}
	cache, err := pcache.NewSharded(mem, opt.CacheBytes, opt.PageSize, opt.FrameShards)
	if err != nil {
		return nil, err
	}
	svc := opt.Syscalls
	if svc == nil {
		svc = gsys.NewService(client.Server(), opt.ZeroCopyRead)
	}
	fs := &FS{
		gpuID:        gpuID,
		opt:          opt,
		sys:          gsys.NewClient(svc, client),
		cache:        cache,
		byPath:       make(map[string]int),
		closed:       make(map[int64]*fileCache),
		closedByPath: make(map[string]int64),
		truncated:    make(map[string]bool),
	}
	if opt.CleanerWorkers > 0 {
		fs.cleaner = newCleaner(fs, opt.CleanerWorkers)
	}
	if opt.ReadAheadAdaptive {
		fs.history = newHistoryTable(histMaxFiles)
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
	reg.SetHelp("gpufs_core_history_invalidations_total", "Profiles dropped because the host copy changed between opens")
	reg.SetHelp("gpufs_ckpt_snapshot_bytes_total", "Bytes captured by value into checkpoint images")
	reg.SetHelp("gpufs_ckpt_cow_faults_total", "Pages preserved by the checkpoint copy-on-write write hook")
	reg.SetHelp("gpufs_ckpt_validation_drops_total", "Speculated clean pages dropped at commit because the host moved")
	reg.SetHelp("gpufs_ckpt_pages_dirty_total", "Dirty pages captured by value into checkpoint images")
	reg.SetHelp("gpufs_ckpt_pages_clean_total", "Clean pages captured by reference that survived validation")

	reg.CounterFunc("gpufs_core_cache_hits_total", fs.cacheHits.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_cache_misses_total", fs.cacheMisses.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_evictions_total", fs.cache.Reclaimed, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_issued_total", fs.prefetchIssued.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_used_total", fs.prefetchUsed.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_core_prefetch_wasted_total", fs.prefetchWasted.Load, "gpu", gpuL)
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
	reg.CounterFunc("gpufs_core_history_invalidations_total", fs.historyInvalidations.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_snapshot_bytes_total", fs.ckptSnapshotBytes.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_cow_faults_total", fs.ckptCoWFaults.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_validation_drops_total", fs.ckptValidationDrops.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_pages_dirty_total", fs.ckptPagesDirty.Load, "gpu", gpuL)
	reg.CounterFunc("gpufs_ckpt_pages_clean_total", fs.ckptPagesClean.Load, "gpu", gpuL)

	m := &fsMetrics{op: make([]*metrics.Histogram, int(trace.OpPipeClose)+1)}
	for _, op := range []trace.Op{
		trace.OpOpen, trace.OpClose, trace.OpRead, trace.OpWrite,
		trace.OpFsync, trace.OpMmap, trace.OpMunmap, trace.OpMsync,
		trace.OpUnlink, trace.OpFstat, trace.OpFtruncate,
		trace.OpEvict, trace.OpPrefetch, trace.OpClean,
		trace.OpReaddir, trace.OpReadWarp,
		trace.OpPipeOpen, trace.OpPipeRead, trace.OpPipeWrite, trace.OpPipeClose,
	} {
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

// newFileCache builds an empty cache for a file.
func (fs *FS) newFileCache(path string, ino, gen, size int64) *fileCache {
	fc := &fileCache{
		tree:    radix.NewTree(),
		lockRes: simtime.NewResource(fmt.Sprintf("gpu%d-treelock-%d", fs.gpuID, ino)),
		ino:     ino,
		path:    path,
	}
	fc.tree.SetForceLocked(fs.opt.ForceLockedTraversal)
	fc.gen.Store(gen)
	fc.size.Store(size)
	return fc
}

// Open implements gopen. All threads of the block invoke it collectively;
// the call runs once per block. Concurrent opens of the same file coalesce:
// one block performs the host open, the rest wait and share the descriptor,
// which then merely has its reference count incremented (§3.2, §4.1).
func (fs *FS) openImpl(b *gpu.Block, path string, flags int) (int, error) {
	fs.opens.Add(1)
	b.Busy(fs.opt.APICostPerPage) // control-plane bookkeeping

	writeOnce := flags&O_GWRONCE != 0
	writeShrd := flags&O_GWRSHARED != 0
	noSync := flags&O_NOSYNC != 0
	if writeOnce && writeShrd {
		return -1, fmt.Errorf("%w: O_GWRONCE with O_GWRSHARED", ErrBadFlags)
	}

	acc := flags & 0x3
	if writeOnce {
		acc = O_WRONLY
	}
	writable := acc == O_WRONLY || acc == O_RDWR
	readable := acc == O_RDONLY || acc == O_RDWR
	if (writeOnce || writeShrd || noSync) && !writable {
		return -1, fmt.Errorf("%w: GPUfs write flags require a writable mode", ErrBadFlags)
	}

	for {
		fs.mu.Lock()
		if fd, ok := fs.byPath[path]; ok {
			f := fs.fds[fd]
			ready := f.ready
			fs.mu.Unlock()
			<-ready // coalesce with the in-flight open
			fs.mu.Lock()
			// Identity check, not just slot occupancy: the entry may
			// have been retired while we waited AND its fd slot and
			// path reused by a brand-new (still-pending) open — we
			// must not adopt an entry we never waited on.
			if fs.byPath[path] != fd || fs.fds[fd] != f {
				fs.mu.Unlock()
				continue // restart against the current table state
			}
			if f.err != nil {
				err := f.err
				fs.mu.Unlock()
				return -1, err
			}
			if f.flags != flags {
				fs.mu.Unlock()
				return -1, fmt.Errorf("%w: %q open with flags %#x, requested %#x",
					ErrFlagConflict, path, f.flags, flags)
			}
			f.refs++
			fs.mu.Unlock()
			return fd, nil
		}

		// Fast path: the file is in the closed file table with matching
		// flags, and the consistency layer's shared-memory generation
		// table confirms our cached copy is current — move the cache
		// back to the open file table with no CPU round trip (§4.1).
		if ino, ok := fs.closedByPath[path]; ok && !fs.opt.DisableFastReopen {
			fc := fs.closed[ino]
			if fc != nil && fc.lastFlags == flags && fc.keepFd.Load() != 0 &&
				fs.sys.PeekValid(b.Clock, fc.ino, fc.gen.Load()) {
				delete(fs.closed, ino)
				delete(fs.closedByPath, path)
				ready := make(chan struct{})
				close(ready)
				f := &file{
					fc:        fc,
					path:      path,
					flags:     flags,
					writeOnce: writeOnce,
					writeShrd: writeShrd,
					noSync:    noSync,
					writable:  writable,
					readable:  readable,
					hostFd:    fc.keepFd.Load(),
					refs:      1,
					ready:     ready,
				}
				fc.keepFd.Store(0)
				fd := fs.allocFdLocked(f)
				fs.byPath[path] = fd
				fs.mu.Unlock()

				if writable {
					if err := fs.sys.BeginWrite(fc.ino, writeShrd || writeOnce); err != nil {
						fs.mu.Lock()
						fs.fds[fd] = nil
						delete(fs.byPath, path)
						fc.keepFd.Store(f.hostFd)
						fs.closed[fc.ino] = fc
						fs.closedByPath[path] = fc.ino
						fs.mu.Unlock()
						return -1, err
					}
				}
				fs.closedReuses.Add(1)
				fs.historyAttach(b, f)
				return fd, nil
			}
		}

		// We are the opener: insert a pending entry and do the host work
		// outside the table lock.
		f := &file{
			path:      path,
			flags:     flags,
			writeOnce: writeOnce,
			writeShrd: writeShrd,
			noSync:    noSync,
			writable:  writable,
			readable:  readable,
			refs:      1,
			ready:     make(chan struct{}),
		}
		fd := fs.allocFdLocked(f)
		fs.byPath[path] = fd
		fs.mu.Unlock()

		err := fs.hostOpen(b, f)
		if err != nil {
			fs.mu.Lock()
			fs.fds[fd] = nil
			delete(fs.byPath, path)
			f.err = err
			fs.mu.Unlock()
			close(f.ready)
			return -1, err
		}
		fs.historyAttach(b, f)
		close(f.ready)
		return fd, nil
	}
}

func (fs *FS) allocFdLocked(f *file) int {
	for i, slot := range fs.fds {
		if slot == nil {
			fs.fds[i] = f
			return i
		}
	}
	fs.fds = append(fs.fds, f)
	return len(fs.fds) - 1
}

// hostOpen forwards the first gopen of a file to the CPU, consults the
// closed file table for a reusable cache, validates it against the
// consistency layer, and registers write intent.
func (fs *FS) hostOpen(b *gpu.Block, f *file) error {
	fs.hostOpens.Add(1)

	// Writable files other than O_GWRONCE are opened read-write on the
	// host regardless of the GPU-visible mode: partial-page writes need
	// read-modify-write fetches, and the diff-and-merge protocol needs
	// pristine copies.
	hostFlags := f.flags & hostFlagMask
	if hostFlags&hostfs.O_TRUNC != 0 {
		fs.mu.Lock()
		if fs.truncated[f.path] {
			hostFlags &^= hostfs.O_TRUNC
		} else {
			fs.truncated[f.path] = true
		}
		fs.mu.Unlock()
	}
	switch {
	case f.writeOnce:
		hostFlags = (hostFlags &^ 0x3) | hostfs.O_WRONLY | hostfs.O_CREATE
	case f.writable:
		hostFlags = (hostFlags &^ 0x3) | hostfs.O_RDWR
	}
	if f.noSync {
		hostFlags |= hostfs.O_CREATE
	}
	hfd, info, err := fs.lane(b).Open(b.Clock, f.path, hostFlags, hostfs.ModeRead|hostfs.ModeWrite)
	if err != nil {
		return err
	}

	if f.writable {
		// O_GWRONCE files may be write-shared across processors: each
		// byte is written at most once and diff-against-zeros merges
		// disjoint updates (§3.1). Other writes are single-writer
		// unless opened O_GWRSHARED.
		if err := fs.sys.BeginWrite(info.Ino, f.writeShrd || f.writeOnce); err != nil {
			fs.lane(b).Close(b.Clock, hfd)
			return err
		}
	}

	// Check the closed file table first: if this GPU still caches the
	// file and the consistency layer confirms the host copy is
	// unchanged, move the cache back to the open file table (§4.1).
	fs.mu.Lock()
	fc, cached := fs.closed[info.Ino]
	if cached {
		delete(fs.closed, info.Ino)
		delete(fs.closedByPath, fc.path)
	}
	fs.mu.Unlock()

	if cached {
		valid := fs.lane(b).Validate(b.Clock, info.Ino, fc.gen.Load())
		if valid && info.Generation == fc.gen.Load() {
			fs.closedReuses.Add(1)
			// Replace any retained write-back descriptor with the
			// fresh one.
			if old := fc.keepFd.Swap(0); old != 0 {
				fs.lane(b).Close(b.Clock, old)
			}
			fs.publishCache(f, fc, hfd)
			return nil
		}
		// Stale: discard the cached pages (lazy invalidation, §4.4).
		fs.discardCache(b, fc)
	}

	fs.publishCache(f, fs.newFileCache(f.path, info.Ino, info.Generation, info.Size), hfd)
	fs.sys.RecordCached(info.Ino, info.Generation)
	return nil
}

// publishCache installs a pending open's cache and host descriptor. The
// entry has been in fs.fds since before the host open, and the table
// scans (paging victims, stats, checkpoint) read both fields under fs.mu.
func (fs *FS) publishCache(f *file, fc *fileCache, hostFd int64) {
	fs.mu.Lock()
	f.fc, f.hostFd = fc, hostFd
	fs.mu.Unlock()
}

// Close implements gclose: it decrements the file's reference count and, at
// zero, retires the entry to the closed file table with its pages retained
// for reuse. No data is propagated to the host (§3.2); dirty pages wait for
// gfsync or eviction.
func (fs *FS) closeImpl(b *gpu.Block, fd int) error {
	b.Busy(fs.opt.APICostPerPage)

	fs.mu.Lock()
	f, err := fs.fileLocked(fd)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	f.refs--
	if f.refs > 0 {
		fs.mu.Unlock()
		return nil
	}
	// Last reference: retire to the closed table, retaining the pages
	// AND the host descriptor so a matching reopen is free.
	fs.fds[fd] = nil
	delete(fs.byPath, f.path)
	fc := f.fc
	if old, ok := fs.closed[fc.ino]; ok && old != fc {
		fs.discardCache(b, old)
	}
	if staleIno, ok := fs.closedByPath[f.path]; ok && staleIno != fc.ino {
		if stale := fs.closed[staleIno]; stale != nil {
			delete(fs.closed, staleIno)
			defer fs.discardCache(b, stale)
		}
	}
	fs.closed[fc.ino] = fc
	fs.closedByPath[f.path] = fc.ino
	fc.keepFd.Store(f.hostFd)
	fc.lastFlags = f.flags
	fs.mu.Unlock()

	if fs.history != nil {
		fs.historyRecord(f)
	}

	if f.writable {
		fs.sys.EndWrite(fc.ino)
	}

	if f.noSync || f.unlinked {
		// Temporary or unlinked file: never written back; reclaim
		// local pages immediately.
		fs.mu.Lock()
		delete(fs.closed, fc.ino)
		delete(fs.closedByPath, f.path)
		fc.keepFd.Store(0)
		fs.mu.Unlock()
		fs.discardCache(b, fc)
		fs.lane(b).Close(b.Clock, f.hostFd)
		if f.noSync && !f.unlinked {
			return fs.lane(b).Unlink(b.Clock, f.path)
		}
		return fc.takeWriteErr()
	}

	// Final close surfaces any asynchronous write-back error that no
	// gfsync reported (POSIX: close is the last chance to learn the data
	// didn't make it).
	return fc.takeWriteErr()
}

func (fs *FS) fileLocked(fd int) (*file, error) {
	if fd < 0 || fd >= len(fs.fds) || fs.fds[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return fs.fds[fd], nil
}

// lookupFd returns the open file for fd.
func (fs *FS) lookupFd(fd int) (*file, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fileLocked(fd)
}

// discardCache drops every resident page of fc without write-back
// (invalidation or unlink), retires the tree's stats and closes the
// descriptor kept for reopening.
func (fs *FS) discardCache(b *gpu.Block, fc *fileCache) {
	fs.dropCacheNoWriteback(fc)
	lf, lk := fc.tree.Stats()
	fs.retiredLockFree.Add(lf)
	fs.retiredLocked.Add(lk)
	if old := fc.keepFd.Swap(0); old != 0 {
		fs.lane(b).Close(b.Clock, old)
	}
}

// ResidentPages reports how many buffer-cache pages of path are resident
// on this GPU, whether the file is currently open or retired to the closed
// file table. A serving layer uses it as its cache-affinity signal: a job
// over a file with resident pages is cheaper to run here than anywhere
// else.
func (fs *FS) ResidentPages(path string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fd, ok := fs.byPath[path]; ok {
		if f := fs.fds[fd]; f != nil && f.fc != nil {
			return f.fc.frames.Load()
		}
	}
	if ino, ok := fs.closedByPath[path]; ok {
		if fc := fs.closed[ino]; fc != nil {
			return fc.frames.Load()
		}
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
	// opens that started from a profile, and HistoryInvalidations counts
	// profiles dropped because the host copy changed between opens
	// (ISSUE 9).
	ReplayIssued         int64
	ReplayUsed           int64
	ReplayWasted         int64
	HistoryReplays       int64
	HistoryInvalidations int64
}

// CkptStats are the checkpoint engine's counters (ISSUE 10).
type CkptStats struct {
	// SnapshotBytes counts bytes captured by value into images.
	SnapshotBytes int64
	// CoWFaults counts pages preserved by the gwrite copy-on-write hook
	// (writes that raced the snapshot walk).
	CoWFaults int64
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
		CoWFaults:       fs.ckptCoWFaults.Load(),
		ValidationDrops: fs.ckptValidationDrops.Load(),
		PagesDirty:      fs.ckptPagesDirty.Load(),
		PagesClean:      fs.ckptPagesClean.Load(),
	}
}

// ZeroCopyReads reports how many page reads were charged as served in place
// from the pinned frame (zero when the ZeroCopyRead knob is off).
func (fs *FS) ZeroCopyReads() int64 { return fs.zeroCopyReads.Load() }

// FrameSteals reports allocations satisfied by stealing a frame from
// another shard's free list (0 with a single shard).
func (fs *FS) FrameSteals() int64 { return fs.cache.Steals() }

// leafRecycles sums recycled-leaf counts across live and closed file
// caches (metrics collector; recycling only happens under churn).
func (fs *FS) leafRecycles() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.fds {
		if f != nil && f.fc != nil {
			n += f.fc.tree.Recycles()
		}
	}
	for _, fc := range fs.closed {
		n += fc.tree.Recycles()
	}
	return n
}

// CacheStats snapshots the speculation and cleaning counters.
func (fs *FS) CacheStats() CacheStats {
	return CacheStats{
		PrefetchIssued:       fs.prefetchIssued.Load(),
		PrefetchUsed:         fs.prefetchUsed.Load(),
		PrefetchWasted:       fs.prefetchWasted.Load(),
		CleanedPages:         fs.cleanedPages.Load(),
		CleanerKicks:         fs.cleanerKicks.Load(),
		ReplayIssued:         fs.historyIssued.Load(),
		ReplayUsed:           fs.historyUsed.Load(),
		ReplayWasted:         fs.historyWasted.Load(),
		HistoryReplays:       fs.historyReplays.Load(),
		HistoryInvalidations: fs.historyInvalidations.Load(),
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
	fs.mu.Lock()
	for _, f := range fs.fds {
		if f != nil && f.fc != nil {
			lf, lk := f.fc.tree.Stats()
			s.LockFreeAccesses += lf
			s.LockedAccesses += lk
		}
	}
	for _, fc := range fs.closed {
		lf, lk := fc.tree.Stats()
		s.LockFreeAccesses += lf
		s.LockedAccesses += lk
	}
	fs.mu.Unlock()
	return s
}

// Restart models the GPU-card restart of §3.3: a GPU software failure can
// require restarting the card, "thus losing the GPU's entire memory
// state". Every open descriptor becomes invalid, every cached page —
// including dirty data never synchronized — is discarded, and the host is
// told to forget this GPU's caches. Data previously propagated by gfsync
// or gmsync survives on the host (the failure semantics of the CPU page
// cache).
func (fs *FS) Restart(b *gpu.Block) {
	fs.mu.Lock()
	open := fs.fds
	closed := fs.closed
	fs.fds = nil
	fs.byPath = make(map[string]int)
	fs.closed = make(map[int64]*fileCache)
	fs.closedByPath = make(map[string]int64)
	fs.truncated = make(map[string]bool)
	fs.mu.Unlock()

	// Profiles describe caches that died with the card; the next open
	// re-records from scratch.
	if fs.history != nil {
		fs.history.clear()
	}

	for _, f := range open {
		if f == nil || f.fc == nil {
			continue
		}
		if f.writable {
			fs.sys.EndWrite(f.fc.ino)
		}
		fs.dropCacheNoWriteback(f.fc)
		fs.lane(b).Close(b.Clock, f.hostFd)
	}
	for _, fc := range closed {
		fs.dropCacheNoWriteback(fc)
		if old := fc.keepFd.Swap(0); old != 0 {
			fs.lane(b).Close(b.Clock, old)
		}
	}
}

// dropCacheNoWriteback releases every frame of fc without propagating any
// dirty data — the content is stale, unlinked, or gone with the card — and
// tells the host to forget this GPU caches the file.
func (fs *FS) dropCacheNoWriteback(fc *fileCache) {
	fc.tree.ForEachReadyPage(func(_ uint64, p *radix.FPage) bool {
		fr := fs.beginEvict(p)
		for ; fr == nil; fr = fs.beginEvict(p) {
			if !p.Ready() {
				// A concurrent paging pass already took it.
				return true
			}
			// Briefly referenced (invalidation runs at open time, so
			// holders are transient); wait it out.
			runtime.Gosched()
		}
		fs.reclaim(fc, p, fr, false)
		return true
	})
	fs.sys.Forget(fc.ino)
}
