// Package rpc implements the GPU→CPU remote procedure call infrastructure
// of GPUfs (§4.3). The GPU acts as the *client* — reversing the traditional
// GPU-as-coprocessor roles — and the host CPU runs a file server daemon.
//
// The protocol is synchronous and stateless: a threadblock writes a request
// into one of its GPU's FIFO rings in write-shared host memory, a CPU daemon
// worker discovers it by polling (today's GPUs offer no GPU-to-CPU signal),
// handles it, and the block spins on the response slot. Because PCIe offers
// no cross-bus atomics, there is no one-sided locking anywhere in the
// protocol: every interaction is a message exchange.
//
// The package is two layers and knows nothing about files: a request is
// an Op (the accounting class it is counted under) plus the host work the
// caller supplies — a Handler, or a Request of two Handlers around a DMA
// the worker does not wait for. What a request means — the syscall table,
// descriptor table and wire frames — is internal/gsys, layered above.
//
//   - transport (transport.go): N sharded rings per GPU. A Client is one
//     GPU's endpoint, optionally Bind-ed to a lane so a threadblock's
//     traffic rides its home ring shard. Blocks hash to shards; the
//     retry/timeout protocol, sequence-number dedup, and fault-injection
//     hooks all live here, so every shard inherits the failure handling
//     unchanged. A completion queue matches responses back by
//     (shard, seq) and records out-of-order delivery.
//   - daemon pool (Server, this file): the CPU worker threads that drain
//     the rings (§4.2), one simtime.Resource each. Ring shard s is
//     statically pinned to worker s mod Workers, so each ring keeps FIFO
//     order on one host timeline while distinct rings overlap in virtual
//     time.
//
// Bulk data never travels through the rings; the CPU DMAs it directly to
// or from the GPU buffer-cache pages whose device pointers the GPU
// supplied, on the link's asynchronous channels, overlapping with
// subsequent request handling.
//
// # Failure handling
//
// The transport has the robustness a production daemon needs, and a fault
// injector (internal/faults) to exercise it:
//
//   - Per-request timeouts in virtual time: a block spinning on a response
//     slot gives up responseTimeout after the request was sent and
//     re-enqueues.
//   - Bounded exponential backoff between attempts, with a MaxAttempts
//     retry budget; only transient failures (EAGAIN, lost responses) are
//     retried — real I/O errors are returned immediately.
//   - Idempotent re-execution: every logical request carries a sequence
//     number assigned once and reused across retries. Each ring shard
//     keeps its own dedup table keyed by sequence number; a retry of a
//     request whose response was lost is answered from the table without
//     re-applying the operation, so non-idempotent requests (open with
//     O_TRUNC, close, pwrite) are applied exactly once. Dedup state is
//     per-shard: faults on one ring cannot corrupt another.
//
// There is one protocol: with no injector installed, or a disabled one,
// nothing is lost or bounced, so it makes one attempt, stores the outcome
// in the dedup table and returns.
package rpc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gpufs/internal/faults"
	"gpufs/internal/metrics"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// Op identifies a request type, mirroring the GPUfs calls that must be
// forwarded to the host.
type Op int

// Request operations.
const (
	OpOpen Op = iota
	OpClose
	OpReadPages
	OpWritePages
	OpTruncate
	OpUnlink
	// OpStat rides no syscall. It is the empty round trip: what the
	// benchmark's round-trip probe and the transport's tests send when they
	// want the ring's own cost with no host work behind it.
	OpStat
	OpFsync
	OpValidate
	OpReaddir
	OpPipeOpen
	OpPipeRead
	OpPipeWrite
	OpPipeClose
	numOps
)

// knownOps is the compile-time drift guard companion of numOps: adding an
// Op without extending String() below (and this constant) fails the
// array-length assignment instead of rendering as "Op(14)" at runtime.
const knownOps = 14

var _ [knownOps]struct{} = [numOps]struct{}{}

// String names the request operation. The switch is exhaustive over the
// enum; the drift guard above forces an update when an Op is added.
func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpReadPages:
		return "read"
	case OpWritePages:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpUnlink:
		return "unlink"
	case OpStat:
		return "stat"
	case OpFsync:
		return "fsync"
	case OpValidate:
		return "validate"
	case OpReaddir:
		return "readdir"
	case OpPipeOpen:
		return "pipe_open"
	case OpPipeRead:
		return "pipe_read"
	case OpPipeWrite:
		return "pipe_write"
	case OpPipeClose:
		return "pipe_close"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Errors introduced by the failure model.
var (
	// ErrAgain is the transient, retryable failure the daemon returns
	// when overloaded (injected); clients back off and retry it.
	ErrAgain = errors.New("rpc: resource temporarily unavailable (EAGAIN)")
	// ErrTimeout is returned when a request exhausts its retry budget
	// without observing a response.
	ErrTimeout = errors.New("rpc: request timed out")
)

// Retryable reports whether err is a transient failure worth retrying.
// Real I/O errors (EIO and friends) are not.
func Retryable(err error) bool { return errors.Is(err, ErrAgain) }

// Config parameterizes the RPC timing model and topology.
type Config struct {
	// PollInterval is the mean delay before a polling daemon worker
	// notices a newly enqueued request.
	PollInterval simtime.Duration
	// HandleCost is the CPU cost of dequeuing and dispatching a request.
	HandleCost simtime.Duration
	// ReturnLatency is the delay before the spinning GPU block observes
	// the response in write-shared memory.
	ReturnLatency simtime.Duration

	// Shards is the number of request rings per GPU; threadblocks hash
	// to rings. Zero selects 1 (the original single-ring layout).
	Shards int
	// Workers is the number of daemon worker threads draining the rings;
	// ring shard s is pinned to worker s mod Workers. Zero selects 1
	// (the original single-threaded daemon).
	Workers int

	// MaxAttempts is the per-request retry budget, counting the first
	// attempt. Zero selects the default (8), which every shipped caller
	// runs; the fault oracles deepen it so that their must-succeed
	// operations do not exhaust it.
	MaxAttempts int
}

// The retry policy's timing. responseTimeout is how long (virtual) a block
// spins on its response slot before declaring the response lost and
// retrying; retryBase and retryMax bound the exponential backoff between
// attempts: base<<(attempt-1), capped at max.
const (
	responseTimeout = 2 * simtime.Millisecond
	retryBase       = 20 * simtime.Microsecond
	retryMax        = simtime.Millisecond
)

// Server is the CPU-side GPUfs daemon process: the worker pool that
// drains every GPU's rings, plus the consistency layer the daemon manages.
// One Server serves every GPU of the process.
type Server struct {
	cfg   Config
	layer *wrapfs.Layer
	pool  *simtime.WorkerPool

	inj atomic.Pointer[faults.Injector]
	met *metrics.Registry

	reqCount [numOps]atomic.Int64
}

// NewServer creates the host daemon over the given consistency layer.
func NewServer(cfg Config, layer *wrapfs.Layer) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	return &Server{
		cfg:   cfg,
		layer: layer,
		pool:  simtime.NewWorkerPool("gpufs-cpu-daemon", cfg.Workers),
	}
}

// SetFaultInjector installs (or, with nil, removes) the fault injector
// governing this daemon's request handling.
func (s *Server) SetFaultInjector(inj *faults.Injector) { s.inj.Store(inj) }

// FaultInjector returns the injector installed via SetFaultInjector (nil
// when none is). Handlers layered above consult it where a fault changes
// what they must do (completing injected short reads).
func (s *Server) FaultInjector() *faults.Injector { return s.inj.Load() }

// SetMetrics attaches a metrics registry to the daemon. It must be called
// before NewClient: each client's ring transport resolves per-shard
// instrument handles at creation. A nil registry (the default) keeps the
// per-request hooks at a single pointer test.
func (s *Server) SetMetrics(reg *metrics.Registry) { s.met = reg }

// Layer returns the consistency layer the server manages.
func (s *Server) Layer() *wrapfs.Layer { return s.layer }

// Metrics returns the registry attached via SetMetrics (nil when metrics
// are disabled). The gsys syscall layer resolves its ordering-class
// latency instruments from it.
func (s *Server) Metrics() *metrics.Registry { return s.met }

// Requests reports how many requests of the given op have been served
// (each retry attempt is a separate ring transaction and counts).
func (s *Server) Requests(op Op) int64 { return s.reqCount[op].Load() }

// TotalRequests reports the total request count across all ops.
func (s *Server) TotalRequests() int64 {
	var n int64
	for i := range s.reqCount {
		n += s.reqCount[i].Load()
	}
	return n
}

// Workers reports the daemon worker-pool size.
func (s *Server) Workers() int { return s.pool.Size() }

// ResetTime returns every daemon worker's timeline to idle (benchmark
// harness use).
func (s *Server) ResetTime() { s.pool.Reset() }

// DaemonBusy reports the daemon workers' accumulated busy time, summed
// over the pool.
func (s *Server) DaemonBusy() simtime.Duration { return s.pool.Busy() }

// dedupSlots is the server-side dedup table size per ring shard. Sequence
// numbers index it modulo the size; a slot is only consulted by retries of
// the exact sequence number it holds, and concurrent in-flight requests per
// ring are far fewer than the slot count, so collisions cannot alias.
const dedupSlots = 256

// dedupEntry caches the outcome of an applied request so a retry whose
// response was lost re-delivers the reply instead of re-applying the
// operation. The reply payload itself lives in the variables the handler
// captured, which the first execution already filled.
type dedupEntry struct {
	seq     uint64
	applied bool
	err     error
}

// Client is a GPU's transport endpoint: its rings plus the device's DMA
// link. The zero lane (an unbound client) routes to ring shard 0; Bind
// derives per-lane views that route a threadblock's traffic to its home
// shard.
type Client struct {
	srv   *Server
	gpuID int
	link  *pcie.Link

	t     *ringTransport
	shard int
}

// NewClient creates the RPC endpoint for one GPU, with the server's
// configured number of ring shards.
func (s *Server) NewClient(gpuID int, link *pcie.Link) *Client {
	t := newRingTransport(s, gpuID)
	// A view differs from the endpoint in its shard and nothing else, so all
	// of them exist from the start and Bind, called per syscall, makes none.
	t.views = make([]Client, t.Shards())
	for i := range t.views {
		t.views[i] = Client{srv: s, gpuID: gpuID, link: link, t: t, shard: i}
	}
	return &t.views[0]
}

// Bind returns the view of the client whose requests ride the ring shard
// that lane (a threadblock index) hashes to. Views share the transport —
// rings, dedup tables, counters.
func (c *Client) Bind(lane int) *Client { return &c.t.views[c.t.ShardFor(lane)] }

// GPUID reports the owning GPU's index.
func (c *Client) GPUID() int { return c.gpuID }

// Link returns the client's DMA link.
func (c *Client) Link() *pcie.Link { return c.link }

// Shards reports the number of request rings on this client's transport.
func (c *Client) Shards() int { return c.t.Shards() }

// Shard reports the ring shard this client view is bound to.
func (c *Client) Shard() int { return c.shard }

// ShardFor reports the ring shard the given lane hashes to. The mapping
// is stable across clients and runs.
func (c *Client) ShardFor(lane int) int { return c.t.ShardFor(lane) }

// MaxQueueDepth reports the maximum number of concurrently outstanding
// requests observed across this GPU's rings.
func (c *Client) MaxQueueDepth() int64 { return c.t.maxDepth.Load() }

// Retries reports how many retry attempts this GPU's transport has issued.
func (c *Client) Retries() int64 { return c.t.retries.Load() }

// Timeouts reports how many response timeouts this GPU's transport has
// observed.
func (c *Client) Timeouts() int64 { return c.t.timeouts.Load() }

// Completions reports how many responses the completion queue matched
// back to their request frames.
func (c *Client) Completions() int64 { return c.t.cq.Matched() }

// OutOfOrderCompletions reports how many responses were overtaken by a
// response to a later-sent request — the signature of sharded rings and
// parallel daemon workers. Always zero with one shard and one worker.
func (c *Client) OutOfOrderCompletions() int64 { return c.t.cq.OutOfOrder() }

// UnmatchedCompletions reports responses that arrived for no pending
// frame; nonzero values indicate a transport bug.
func (c *Client) UnmatchedCompletions() int64 { return c.t.cq.Unmatched() }

// Server returns the daemon this client talks to.
func (c *Client) Server() *Server { return c.srv }

// Do runs one logical blocking request on this view's ring shard: handler
// performs the server-side work on a daemon worker's clock and returns the
// completion time of any asynchronous DMA plus the operation's error (its
// results land in variables the caller captured); the block's clock
// advances to response delivery.
func (c *Client) Do(blk *simtime.Clock, op Op, handler Handler) error {
	return c.t.Submit(blk, c.shard, op, Request{Handle: handler})
}

// DoAsync runs one non-blocking request: it is enqueued at the block's
// current time and handled identically, but the block's clock is
// untouched and the returned time says when the response lands. Like all
// detached submissions it is never retried.
func (c *Client) DoAsync(blk *simtime.Clock, op Op, handler Handler) (simtime.Time, error) {
	return c.t.SubmitAsync(blk, c.shard, op, Request{Handle: handler})
}

// Submit is Do for a request that may be two stretches of host work (see
// Request); the block's clock advances to the delivery of the response that
// follows the last stretch.
func (c *Client) Submit(blk *simtime.Clock, op Op, req Request) error {
	return c.t.Submit(blk, c.shard, op, req)
}

// SubmitAsync is DoAsync for a Request.
func (c *Client) SubmitAsync(blk *simtime.Clock, op Op, req Request) (simtime.Time, error) {
	return c.t.SubmitAsync(blk, c.shard, op, req)
}
