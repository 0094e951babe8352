// Package trace records GPUfs API operations with their virtual-time
// spans, for debugging kernels and for understanding where a workload's
// time goes (RPC round trips versus buffer-cache hits versus paging).
//
// Tracing is off by default and costs one atomic load per operation when
// disabled. Enabled tracers keep a bounded in-memory ring of events;
// overflow drops the oldest events and counts them, so a runaway kernel
// cannot exhaust memory.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gpufs/internal/simtime"
)

// Op identifies a traced GPUfs call.
type Op uint8

// Traced operations.
const (
	OpOpen Op = iota
	OpClose
	OpRead
	OpWrite
	OpFsync
	OpMmap
	OpMunmap
	OpMsync
	OpUnlink
	OpFstat
	OpFtruncate
	OpEvict
	// OpFault marks an injected fault (internal/faults); Path names the
	// injection site.
	OpFault
	// OpRetry marks an RPC retry attempt after a timeout or transient
	// failure; Path names the retried operation.
	OpRetry
	// OpEnqueue marks a serving-layer job admission (internal/serve);
	// Path names the job's input file and GPU the routed device.
	OpEnqueue
	// OpBatch marks a serving-layer batch assembly; Bytes carries the
	// number of jobs coalesced into the batch.
	OpBatch
	// OpDispatch marks a serving-layer kernel dispatch: the span is the
	// launch thread's, from the batch's issue to one launch overhead
	// later. The kernel outlives it and may overlap the next one's; its
	// blocks draw their own spans on their own rows.
	OpDispatch
	// OpPrefetch marks a speculative read issue (read-ahead, ISSUE 4);
	// Bytes is the coalesced extent of the issue.
	OpPrefetch
	// OpPrefetchWaste marks speculative pages reclaimed before any demand
	// access consumed them; Bytes is the wasted extent.
	OpPrefetchWaste
	// OpClean marks one background-cleaner pass (Block is negative: the
	// cleaner runs on its own lane, not a threadblock); Bytes is the
	// extent written back or pre-evicted.
	OpClean
	numOps
)

// knownOps is the compile-time drift guard companion of numOps: adding an
// Op without extending String() below (and this constant) fails the
// array-length assignment instead of rendering as "Op(20)" at runtime.
const knownOps = 20

var _ [knownOps]struct{} = [numOps]struct{}{}

// String names the operation as the paper does (gopen, gread, ...). The
// switch is exhaustive over the enum; the drift guard above forces an
// update when an Op is added.
func (o Op) String() string {
	switch o {
	case OpOpen:
		return "gopen"
	case OpClose:
		return "gclose"
	case OpRead:
		return "gread"
	case OpWrite:
		return "gwrite"
	case OpFsync:
		return "gfsync"
	case OpMmap:
		return "gmmap"
	case OpMunmap:
		return "gmunmap"
	case OpMsync:
		return "gmsync"
	case OpUnlink:
		return "gunlink"
	case OpFstat:
		return "gfstat"
	case OpFtruncate:
		return "gftruncate"
	case OpEvict:
		return "evict"
	case OpFault:
		return "fault"
	case OpRetry:
		return "retry"
	case OpEnqueue:
		return "enqueue"
	case OpBatch:
		return "batch"
	case OpDispatch:
		return "dispatch"
	case OpPrefetch:
		return "prefetch"
	case OpPrefetchWaste:
		return "prefetch-waste"
	case OpClean:
		return "clean"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// LaunchQueue is the Block of an event that belongs to a GPU's launch queue
// (the serving layer's enqueue, batch and dispatch) rather than to one of its
// threadblocks. Trace exports render such events on a per-GPU "launch-queue"
// thread.
const LaunchQueue = -1 << 16

// Event is one traced operation.
type Event struct {
	// Seq is the event's global sequence number.
	Seq uint64
	// GPU and Block locate the caller; Block is LaunchQueue for the GPU's
	// launch thread.
	GPU, Block int
	// Shard is the RPC ring shard the event belongs to, 1-based; zero
	// means the event is not tied to a ring lane. Trace exports render
	// shard-stamped events on dedicated per-shard threads.
	Shard int
	// Op is the operation.
	Op Op
	// Path is the file operated on (empty for ops without one).
	Path string
	// Offset and Bytes describe the data range, where applicable.
	Offset int64
	Bytes  int64
	// Start and End are the operation's virtual-time span.
	Start, End simtime.Time
	// Err is the error message, if the operation failed.
	Err string
}

// Duration is the event's virtual span.
func (e Event) Duration() simtime.Duration { return e.End.Sub(e.Start) }

// String renders the event in one line.
func (e Event) String() string {
	lane := fmt.Sprintf("b%-3d", e.Block)
	if e.Block == LaunchQueue {
		lane = "lq  "
	}
	s := fmt.Sprintf("%10.3fms gpu%d/%s %-10s %s", e.Start.Seconds()*1e3,
		e.GPU, lane, e.Op, e.Path)
	if e.Bytes > 0 {
		s += fmt.Sprintf(" off=%d n=%d", e.Offset, e.Bytes)
	}
	s += fmt.Sprintf(" (%v)", e.Duration())
	if e.Err != "" {
		s += " ERR=" + e.Err
	}
	return s
}

// Tracer is a bounded event recorder, safe for concurrent use.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	dropped uint64
}

// New creates a tracer holding up to capacity events.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Enable turns recording on or off.
func (t *Tracer) Enable(on bool) { t.enabled.Store(on) }

// Enabled reports whether recording is on. Callers use it to skip event
// construction entirely on the fast path.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Record appends an event (assigning its sequence number) if enabled.
func (t *Tracer) Record(e Event) {
	if !t.Enabled() {
		return
	}
	e.Seq = t.seq.Add(1)
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % cap(t.ring)
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Dropped reports how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the retained events in sequence order.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	if !t.wrapped {
		out = append(out[:0], t.ring...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset clears the ring.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.wrapped = false
	t.dropped = 0
	t.mu.Unlock()
}

// OpStats summarizes one operation type.
type OpStats struct {
	Op    Op
	Count int
	// Bytes is the total data volume.
	Bytes int64
	// Total is the summed virtual time.
	Total simtime.Duration
	// Errors counts failed calls.
	Errors int
}

// Summary aggregates the retained events per operation, ordered by total
// virtual time descending.
func (t *Tracer) Summary() []OpStats {
	agg := make(map[Op]*OpStats)
	for _, e := range t.Snapshot() {
		st, ok := agg[e.Op]
		if !ok {
			st = &OpStats{Op: e.Op}
			agg[e.Op] = st
		}
		st.Count++
		st.Bytes += e.Bytes
		st.Total += e.Duration()
		if e.Err != "" {
			st.Errors++
		}
	}
	out := make([]OpStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// FormatSummary renders the per-op aggregate as an aligned table.
func (t *Tracer) FormatSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %14s %7s\n", "op", "count", "bytes", "virtual time", "errors")
	for _, st := range t.Summary() {
		fmt.Fprintf(&b, "%-12s %8d %12d %14s %7d\n",
			st.Op, st.Count, st.Bytes, st.Total, st.Errors)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d events dropped from the ring)\n", d)
	}
	return b.String()
}
