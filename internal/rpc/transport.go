package rpc

// The transport layer: framed request/response slots over N sharded rings
// per GPU, drained by the daemon pool (rpc.go).
//
// Each ring shard is an independent FIFO in write-shared host memory with
// its own sequence-number space, its own server-side dedup table, and its
// own daemon worker affinity; blocks hash to shards. Because the retry,
// timeout, and dedup protocol lives HERE rather than with the callers'
// handlers, every shard inherits the failure handling unchanged, and a
// fault injected on one shard's ring (a lost response, a transient
// bounce) cannot corrupt another shard: dedup state is never shared
// across rings.
//
// Responses are delivered through a completion queue that matches each
// response back to its waiting request by (shard, sequence-number) frame
// id. With several shards and daemon workers, responses complete out of
// order in virtual time — a slow read on one ring does not delay a stat on
// another — and the queue keeps the evidence (see completionLog).

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"gpufs/internal/faults"
	"gpufs/internal/metrics"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// Handler performs the server-side work of one request on a daemon
// worker's clock. It returns the completion time of any asynchronous DMA
// belonging to the request plus the operation's error; result payloads
// land in variables the caller captured.
type Handler func(cclk *simtime.Clock) (simtime.Time, error)

// Request is the host work of one ring transaction: one stretch on the
// ring's daemon worker (Handle alone) or, with Resume set, two stretches
// around a DMA the worker does not wait for (§4.3: bulk transfers overlap
// with subsequent request handling). Handle runs at dispatch and returns the
// completion time of the transfer it started; the worker serves other ring
// slots meanwhile and runs Resume at its first free instant at or after that
// completion. Resume's return is then the request's (see Handler); it does
// not run when Handle fails.
type Request struct {
	Handle Handler
	Resume Handler
}

// ringTransport is the per-GPU transport: Shards independent rings sharing
// one DMA link and one daemon pool. A Submit is one LOGICAL request: the
// transport owns the per-request timeout, bounded-backoff retry, and
// sequence-number dedup, so the operation is applied exactly once
// regardless of injected faults.
type ringTransport struct {
	srv    *Server
	gpuID  int
	shards []*ringShard
	// views are the endpoint's per-shard Client views, index = shard (see
	// Server.NewClient).
	views []Client

	// inflight/maxDepth aggregate across shards: the device-wide count of
	// outstanding ring slots, which is what bounds GPU-side slot memory.
	inflight atomic.Int64
	maxDepth atomic.Int64

	retries  atomic.Int64
	timeouts atomic.Int64

	cq completionLog
}

// ringShard is one request ring: a framed FIFO with its own sequence
// space, dedup table, and daemon worker.
type ringShard struct {
	t      *ringTransport
	id     int
	worker *simtime.Resource

	// seq numbers this ring's logical requests; retries reuse the number.
	seq      atomic.Uint64
	requests atomic.Int64

	// svcTime holds this ring's per-op service-time histograms (send to
	// response observation, in virtual time); nil entries when metrics
	// are disabled.
	svcTime [numOps]*metrics.Histogram

	dedupMu sync.Mutex
	dedup   [dedupSlots]dedupEntry
}

func newRingTransport(srv *Server, gpuID int) *ringTransport {
	t := &ringTransport{srv: srv, gpuID: gpuID}
	for i := 0; i < srv.cfg.Shards; i++ {
		t.shards = append(t.shards, &ringShard{
			t: t, id: i, worker: srv.pool.Worker(i),
		})
	}
	t.cq.init()
	if reg := srv.met; reg != nil {
		t.attachMetrics(reg)
	}
	return t
}

// attachMetrics resolves the transport's instrument handles: per-ring
// per-op service-time histograms (inline, observation-only) and snapshot
// collectors over the counters the transport already keeps.
func (t *ringTransport) attachMetrics(reg *metrics.Registry) {
	gpu := strconv.Itoa(t.gpuID)
	reg.SetHelp("gpufs_rpc_service_time_seconds",
		"Virtual send-to-response latency of one logical RPC per ring shard and op")
	reg.SetHelp("gpufs_rpc_requests_total", "Ring transactions enqueued per shard (retries count)")
	reg.SetHelp("gpufs_rpc_retries_total", "Retry attempts issued by the transport")
	reg.SetHelp("gpufs_rpc_timeouts_total", "Response timeouts observed by spinning blocks")
	reg.SetHelp("gpufs_rpc_inflight_peak", "High-water mark of concurrently outstanding ring slots")
	reg.SetHelp("gpufs_rpc_out_of_order_total", "Responses overtaken by a later-sent request's response")
	reg.SetHelp("gpufs_rpc_unmatched_total", "Responses that matched no pending frame (transport bugs)")
	for _, sh := range t.shards {
		shard := strconv.Itoa(sh.id)
		for op := Op(0); op < numOps; op++ {
			sh.svcTime[op] = reg.DurationHistogram("gpufs_rpc_service_time_seconds",
				"gpu", gpu, "shard", shard, "op", op.String())
		}
		reg.CounterFunc("gpufs_rpc_requests_total", sh.requests.Load, "gpu", gpu, "shard", shard)
	}
	reg.CounterFunc("gpufs_rpc_retries_total", t.retries.Load, "gpu", gpu)
	reg.CounterFunc("gpufs_rpc_timeouts_total", t.timeouts.Load, "gpu", gpu)
	reg.GaugeFunc("gpufs_rpc_inflight_peak", t.maxDepth.Load, "gpu", gpu)
	reg.CounterFunc("gpufs_rpc_out_of_order_total", t.cq.OutOfOrder, "gpu", gpu)
	reg.CounterFunc("gpufs_rpc_unmatched_total", t.cq.Unmatched, "gpu", gpu)
}

func (t *ringTransport) Shards() int { return len(t.shards) }

// shardMix is a splitmix64-style avalanche of the lane id, so consecutive
// block indices spread across shards instead of striping.
func shardMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardFor reports the ring that the given lane (threadblock index) hashes
// to. The mapping is stable: the same lane always routes to the same
// shard, on every client and every run.
func (t *ringTransport) ShardFor(lane int) int {
	n := len(t.shards)
	if n == 1 {
		return 0
	}
	if lane < 0 {
		lane = -lane
	}
	return int(shardMix(uint64(lane)) % uint64(n))
}

// begin models enqueue + poll + dispatch on this shard's ring: the request
// sent at the block's current time is noticed by the shard's daemon worker
// after the poll interval (plus any injected extra), then waits for that
// worker. It returns the worker-side clock positioned at the start of
// request handling.
func (sh *ringShard) begin(blk *simtime.Clock, op Op, extra simtime.Duration) *simtime.Clock {
	t := sh.t
	t.srv.reqCount[op].Add(1)
	sh.requests.Add(1)
	d := t.inflight.Add(1)
	for {
		m := t.maxDepth.Load()
		if d <= m || t.maxDepth.CompareAndSwap(m, d) {
			break
		}
	}
	arrive := blk.Now().Add(t.srv.cfg.PollInterval + extra)
	_, end := sh.worker.Acquire(arrive, t.srv.cfg.HandleCost)
	return simtime.NewClock(end)
}

// serve runs req's host work on the worker-side clock begin returned and
// books it: the worker stays occupied from the handling slot through the end
// of each stretch, and is not booked in between. The second stretch is a
// continuation, not a dispatch: it pays no HandleCost — a DMA's completion
// needs no CPU, which the response of a read already assumes — and the CPU
// work that follows the completion is what gets booked.
func (sh *ringShard) serve(cclk *simtime.Clock, req Request) (simtime.Time, error) {
	from := cclk.Now()
	done, err := req.Handle(cclk)
	if req.Resume != nil && err == nil {
		sh.book(from, cclk.Now())
		// First instant at or after the transfer's completion at which the
		// worker is free.
		from = sh.worker.Probe(max(done, cclk.Now()), simtime.Nanosecond)
		cclk.AdvanceTo(from)
		done, err = req.Resume(cclk)
	}
	sh.book(from, cclk.Now())
	return done, err
}

// book occupies the worker over [from, to) and adds what it booked twice
// to the daemon's overlap.
func (sh *ringShard) book(from, to simtime.Time) {
	sh.t.srv.overlap.Add(int64(sh.worker.Occupy(from, to)))
}

// finish releases the ring slot and advances the block's clock to when it
// observes the response; done is the completion time of any asynchronous
// DMA belonging to the request.
func (sh *ringShard) finish(blk, cclk *simtime.Clock, done simtime.Time) {
	sh.t.inflight.Add(-1)
	if cclk.Now() > done {
		done = cclk.Now()
	}
	blk.AdvanceTo(done.Add(sh.t.srv.cfg.ReturnLatency))
}

// dedupLookup consults this ring's dedup table for seq.
func (sh *ringShard) dedupLookup(seq uint64) (hit bool, err error) {
	sh.dedupMu.Lock()
	e := &sh.dedup[seq%dedupSlots]
	hit, err = e.applied && e.seq == seq, e.err
	sh.dedupMu.Unlock()
	return hit, err
}

// dedupStore records that seq was applied on this ring with the given
// outcome.
func (sh *ringShard) dedupStore(seq uint64, err error) {
	sh.dedupMu.Lock()
	sh.dedup[seq%dedupSlots] = dedupEntry{seq: seq, applied: true, err: err}
	sh.dedupMu.Unlock()
}

// Submit runs one logical request on the shard under the retry protocol of
// the package comment: timeouts, bounded backoff and per-shard dedup. Every
// injector hook is a no-op on a nil or disabled injector, so without one the
// loop makes one attempt and returns.
func (t *ringTransport) Submit(blk *simtime.Clock, shard int, op Op, req Request) error {
	sh := t.shards[shard]
	seq := sh.seq.Add(1)
	inj := t.srv.inj.Load()
	// Service-time observation is a pure read of the block's clock before
	// and after the exchange — never a resource acquisition — so metrics
	// cannot shift virtual timing. ObserveSpan on a nil histogram (metrics
	// disabled) is a single pointer test.
	start := blk.Now()

	budget := t.srv.cfg.MaxAttempts
	t.cq.send(sh.id, seq, start)
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			t.retries.Add(1)
			// Bounded exponential backoff in virtual time before
			// re-enqueuing on the same ring with the same seq.
			d := retryBase << uint(attempt-1)
			if d <= 0 || d > retryMax {
				d = retryMax
			}
			blk.Advance(d)
			inj.RecordEvent(trace.Event{
				GPU: t.gpuID, Shard: sh.id + 1, Op: trace.OpRetry, Path: op.String(),
				Start: blk.Now(), End: blk.Now(),
			})
		}
		sent := blk.Now()

		// Injected slow poll: this shard's worker notices the request
		// late.
		var extra simtime.Duration
		if inj.ShouldOn(faults.RPCPollDelay, sent, t.gpuID, sh.id+1) {
			extra = inj.Delay(faults.RPCPollDelay)
		}
		cclk := sh.begin(blk, op, extra)

		if inj.ShouldOn(faults.RPCTransient, cclk.Now(), t.gpuID, sh.id+1) {
			// EAGAIN: the worker bounces the request before touching
			// the dedup table or the file system — nothing applied.
			sh.finish(blk, cclk, 0)
			lastErr = ErrAgain
			continue
		}

		var done simtime.Time
		var err error
		if hit, cachedErr := sh.dedupLookup(seq); hit {
			// A previous attempt applied this request but its
			// response was lost; re-deliver the cached reply without
			// re-executing (exactly-once application).
			err = cachedErr
		} else {
			done, err = sh.serve(cclk, req)
			sh.dedupStore(seq, err)
		}

		if inj.ShouldOn(faults.RPCDropResponse, cclk.Now(), t.gpuID, sh.id+1) {
			// The work is done but the response never reaches the
			// spinning block: the worker stays charged for it (serve), the
			// block spins until its timeout, then retries.
			t.inflight.Add(-1)
			t.timeouts.Add(1)
			blk.AdvanceTo(sent.Add(responseTimeout))
			lastErr = fmt.Errorf("%w: %s shard %d seq %d", ErrTimeout, op, sh.id, seq)
			continue
		}
		if inj.ShouldOn(faults.RPCDupResponse, cclk.Now(), t.gpuID, sh.id+1) {
			// The response is delivered twice; the block consumed the
			// first copy, and the duplicate — arriving for a frame id
			// already matched by the completion queue — is discarded
			// on arrival. Counted by the injector; no semantic
			// effect, which is the point.
			_ = seq
		}
		sh.finish(blk, cclk, done)
		t.cq.deliver(sh.id, seq, blk.Now())
		sh.svcTime[op].ObserveSpan(start, blk.Now())
		return err
	}
	t.cq.deliver(sh.id, seq, blk.Now())
	sh.svcTime[op].ObserveSpan(start, blk.Now())
	return fmt.Errorf("%w: %s gave up after %d attempts: %v", ErrTimeout, op, budget, lastErr)
}

// SubmitAsync enqueues a request at the block's current time without
// advancing the block's clock; the returned time says when the response
// lands. Speculative requests are never retried: no block waits on the
// result, and a lost prefetch costs only the optimization.
func (t *ringTransport) SubmitAsync(blk *simtime.Clock, shard int, op Op, req Request) (simtime.Time, error) {
	sh := t.shards[shard]
	seq := sh.seq.Add(1)
	inj := t.srv.inj.Load()
	var extra simtime.Duration
	if inj.ShouldOn(faults.RPCPollDelay, blk.Now(), t.gpuID, sh.id+1) {
		extra = inj.Delay(faults.RPCPollDelay)
	}
	t.cq.send(sh.id, seq, blk.Now())
	cclk := sh.begin(blk, op, extra)
	var done simtime.Time
	var err error
	defer func() {
		t.inflight.Add(-1)
		at := done
		if at < cclk.Now() {
			at = cclk.Now()
		}
		t.cq.deliver(sh.id, seq, at)
	}()

	if inj.ShouldOn(faults.RPCTransient, cclk.Now(), t.gpuID, sh.id+1) {
		return 0, ErrAgain
	}
	done, err = sh.serve(cclk, req)
	if err != nil {
		return 0, err
	}
	at := done
	if at < cclk.Now() {
		at = cclk.Now()
	}
	// Speculative requests: observe enqueue-to-response-landing.
	sh.svcTime[op].ObserveSpan(blk.Now(), at)
	return at, nil
}

// ---- Completion queue ----

// completionLog is the response side of the rings: every logical request
// registers a pending frame at send time, and its response — whenever and
// in whatever order it arrives — is matched back by (shard, seq). The log
// keeps a bounded record of (sent, delivered) pairs so out-of-order
// delivery (a later-sent request observed before an earlier-sent one) is
// measurable; see OutOfOrder.
type completionLog struct {
	mu        sync.Mutex
	pending   map[uint64]simtime.Time
	recs      []completionRec
	delivered int64
	matched   int64
	unmatched int64 // responses with no pending frame: protocol bugs
}

type completionRec struct{ sent, delivered simtime.Time }

// completionLogCap bounds the retained delivery records; totals keep
// counting beyond it.
const completionLogCap = 1 << 14

func (l *completionLog) init() { l.pending = make(map[uint64]simtime.Time) }

func frameKey(shard int, seq uint64) uint64 {
	return uint64(shard)<<48 ^ seq&(1<<48-1)
}

func (l *completionLog) send(shard int, seq uint64, at simtime.Time) {
	l.mu.Lock()
	l.pending[frameKey(shard, seq)] = at
	l.mu.Unlock()
}

func (l *completionLog) deliver(shard int, seq uint64, at simtime.Time) {
	l.mu.Lock()
	l.delivered++
	key := frameKey(shard, seq)
	sent, ok := l.pending[key]
	if !ok {
		l.unmatched++
		l.mu.Unlock()
		return
	}
	delete(l.pending, key)
	l.matched++
	if len(l.recs) < completionLogCap {
		l.recs = append(l.recs, completionRec{sent: sent, delivered: at})
	}
	l.mu.Unlock()
}

// Matched reports how many responses were matched back to their frames.
func (l *completionLog) Matched() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.matched
}

// Unmatched reports responses that arrived for no pending frame.
func (l *completionLog) Unmatched() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unmatched
}

// OutOfOrder counts deliveries that were overtaken: responses observed at
// a virtual time LATER than some response whose request was sent strictly
// after theirs. Zero means responses arrived in send order (the serialized
// single-ring behaviour); a positive count is the signature of sharded
// rings and parallel workers.
func (l *completionLog) OutOfOrder() int64 {
	l.mu.Lock()
	recs := append([]completionRec(nil), l.recs...)
	l.mu.Unlock()

	sort.Slice(recs, func(i, j int) bool {
		if recs[i].sent != recs[j].sent {
			return recs[i].sent < recs[j].sent
		}
		return recs[i].delivered < recs[j].delivered
	})
	var ooo int64
	maxPrev := simtime.Time(-1) // max delivered among strictly-earlier sends
	groupMax := simtime.Time(-1)
	for i, r := range recs {
		if i > 0 && r.sent != recs[i-1].sent && groupMax > maxPrev {
			maxPrev = groupMax
		}
		if maxPrev >= 0 && r.delivered < maxPrev {
			ooo++
		}
		if r.delivered > groupMax {
			groupMax = r.delivered
		}
	}
	return ooo
}
