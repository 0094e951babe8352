package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gpufs"
	"gpufs/internal/metrics"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// env is what one repetition of a workload is handed. The program under
// test only ever sees inputs generated from seed.
type env struct {
	seed  int64
	smoke bool // bench_test sizes: every workload in well under a second
	// full makes serve_open sweep all five offered rates; the end-to-end
	// metrics need only the backlogged and r80 points.
	full bool
	// rec is non-nil in the traced rep only: benchmark-side spans are
	// kept, and the program's own EnableTracing and metrics registry are
	// switched on.
	rec *recorder
}

// rep is what one repetition reports. Workloads fill the raw quantities;
// the end-to-end metrics are derived from them in one place (e2e).
type rep struct {
	setupS, hostS, allocMB float64
	calibS                 float64 // calibrate() beside this rep, set by pass
	bytes                  int64   // user bytes read and written
	makespan               simtime.Duration
	opLat                  []simtime.Duration // one sample per user operation
	attempted, failed      int64
	layer                  map[string]float64 // per-layer metrics of this rep
}

// e2e derives the end-to-end metrics of one rep.
func (r *rep) e2e() map[string]float64 {
	sec := r.makespan.Seconds()
	return map[string]float64{
		"setup_s":       r.setupS,
		"host_s":        r.hostS,
		"host_alloc_mb": r.allocMB,
		"virt_mbps":     float64(r.bytes) / sec / 1e6,
		"lat_p50_vms":   percentile(r.opLat, 50).Milliseconds(),
		"lat_p99_vms":   percentile(r.opLat, 99).Milliseconds(),
	}
}

// cpuTime is the CPU time this process has used, user plus system. The
// host-clock metrics are CPU seconds, not wall seconds: the benchmark runs
// on shared machines, and at GOMAXPROCS(1) the two differ only by the time
// a neighbour kept this process off the core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument can fail it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure times fn on the host clock and books its allocations. The
// collection beforehand keeps one rep's set-up garbage out of the next
// one's measured phase.
func (r *rep) measure(fn func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := cpuTime()
	err := fn()
	r.hostS += (cpuTime() - t).Seconds()
	runtime.ReadMemStats(&after)
	r.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return err
}

// ---- machine-speed calibration ----
//
// The machines this runs on are shared, and their speed drifts: over a
// quarter of an hour the same binary's CPU seconds for one open_scan rep
// moved between 0.51 and 0.83, with the allocation-heavy workloads moving
// most. No estimator over the reps of one run removes that, since every rep
// of the run is slowed alike. So each rep also times a fixed mix of work
// that has nothing to do with the program under test, and the host-clock
// metrics are reported at reference speed: CPU seconds times
// calibReferenceS over what the mix took beside those reps. Over 14 runs
// per workload spanning quiet and slow stretches, that took the spread of
// host_s (interquartile range over median) from 14-22 % to 1.4-5.6 %
// (README, "What a host second is").

// calibReferenceS is what calibrate takes on the box the benchmark was
// written on while it is quiet. It only fixes the scale, so that the
// host-clock metrics read as seconds; it is frozen so that a parent commit
// and a change are scaled alike.
const calibReferenceS = 0.040

var (
	calibWords = make([]uint64, 1<<20) // 8 MiB, larger than the caches
	calibPage  = make([]byte, 32<<10)
	calibDst   = make([]byte, 4<<20)
	calibLive  [1 << 12][]byte
)

// calibrate runs the mix once and returns its CPU seconds. The five parts
// are the kinds of work the simulator's host time is made of: scattered
// loads and stores that miss the caches, arithmetic, page-sized copies,
// small allocations with a map beside them, and goroutine hand-offs.
func calibrate() float64 {
	t := cpuTime()
	x := uint64(88172645463325252)
	step := func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	var sum uint64
	for i := 0; i < 1<<20; i++ {
		step()
		j := x & uint64(len(calibWords)-1)
		sum += calibWords[j]
		calibWords[j] = x
	}
	for i := 0; i < 4<<20; i++ {
		step()
	}
	for k := 0; k < 16; k++ {
		for off := 0; off < len(calibDst); off += len(calibPage) {
			copy(calibDst[off:], calibPage)
		}
	}
	counts := map[uint64]int{}
	for i := 0; i < 1<<16; i++ {
		step()
		calibLive[i%len(calibLive)] = make([]byte, 64+(x&7)*64)
		counts[x&1023]++
	}
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 20000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-pong
	sink = x + sum + uint64(len(counts)) + uint64(calibDst[len(calibDst)-1])
	return (cpuTime() - t).Seconds()
}

// baseConfig is every workload's starting point: the paper's testbed at
// 1/64 scale (14 MPs, default extended knobs). Workloads then set the page
// size and capacities their shape needs.
func baseConfig() gpufs.Config { return gpufs.ScaledConfig(1.0 / 64) }

// traceCapacity is the program-side tracer's ring size in the traced rep.
const traceCapacity = 1 << 16

// newSystem builds a machine. In the traced rep it also switches on the
// program's own tracing and metrics surfaces.
func (e *env) newSystem(cfg gpufs.Config) (*gpufs.System, error) {
	if e.rec == nil {
		return gpufs.NewSystem(cfg)
	}
	sys, err := gpufs.NewSystemWithMetrics(cfg, metrics.New())
	if err != nil {
		return nil, err
	}
	e.rec.tracers = append(e.rec.tracers, sys.EnableTracing(traceCapacity))
	return sys, nil
}

// randomBytes returns n seeded pseudo-random bytes.
func randomBytes(seed int64, n int64) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// ---- statistics ----

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the mean of the middle half of v (the interquartile mean).
// Like a median it ignores a stray value at either end; unlike one it
// averages over what is left, which matters for the serving workloads,
// whose per-draw values scatter by several percent.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile is the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// spreadPct is (max-min)/median in percent.
func spreadPct(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m * 100
}

// percentile is the nearest-rank p-th percentile; it sorts d in place.
func percentile(d []simtime.Duration, p float64) simtime.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

func vus(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }

// ---- counters read through the program's public surface ----

// counters sums every monotonic counter the layers expose, over the given
// machines. Diffing two snapshots attributes the work of the phase between
// them.
func counters(systems []*gpufs.System) map[string]float64 {
	c := map[string]float64{}
	for _, sys := range systems {
		srv := sys.Server()
		c["rpc.requests"] += float64(srv.TotalRequests())
		c["rpc.requests_read"] += float64(srv.Requests(rpc.OpReadPages))
		c["rpc.daemon_busy_vms"] += srv.DaemonBusy().Milliseconds()
		val, inval := srv.Layer().Stats()
		c["wrapfs.validations"] += float64(val)
		c["wrapfs.invalidations"] += float64(inval)
		read, _, seeks := sys.Host().Disk().Stats()
		c["disk.read_mb"] += float64(read) / 1e6
		c["disk.seeks"] += float64(seeks)
		c["disk.busy_vms"] += sys.Host().Disk().Busy().Milliseconds()
		// The hit/miss counters exist only behind the metrics registry,
		// which only the traced rep attaches.
		for _, s := range sys.Metrics().Snapshot() {
			switch s.Name {
			case "gpufs_core_cache_hits_total":
				c["core.cache_hits"] += float64(s.Value)
			case "gpufs_core_cache_misses_total":
				c["core.cache_misses"] += float64(s.Value)
			}
		}
		for i := 0; i < sys.NumGPUs(); i++ {
			g := sys.GPU(i)
			fs := g.FS()
			st, cs := fs.Snapshot(), fs.CacheStats()
			c["core.radix_lockfree"] += float64(st.LockFreeAccesses)
			c["core.radix_locked"] += float64(st.LockedAccesses)
			c["core.pages_faulted"] += float64(fs.Cache().Allocs())
			c["core.pages_reclaimed"] += float64(st.PagesReclaimed)
			c["core.frame_steals"] += float64(fs.FrameSteals())
			c["core.zero_copy_reads"] += float64(fs.ZeroCopyReads())
			c["core.prefetch_issued"] += float64(cs.PrefetchIssued)
			c["core.prefetch_used"] += float64(cs.PrefetchUsed)
			c["core.replay_issued"] += float64(cs.ReplayIssued)
			c["core.replay_used"] += float64(cs.ReplayUsed)
			c["core.history_replays"] += float64(cs.HistoryReplays)
			c["core.opens"] += float64(st.Opens)
			c["core.host_opens"] += float64(st.HostOpens)
			c["core.closed_reuses"] += float64(st.ClosedTableReuses)
			c["core.cleaned_pages"] += float64(cs.CleanedPages)
			c["core.cleaner_kicks"] += float64(cs.CleanerKicks)
			c["gsys.strong_calls"] += float64(fs.Syscalls().StrongCalls())
			c["gsys.relaxed_calls"] += float64(fs.Syscalls().RelaxedCalls())
			c["rpc.retries"] += float64(fs.Client().Retries())
			c["rpc.ooo_completions"] += float64(fs.Client().OutOfOrderCompletions())
			h2d, d2h, dmas := g.Link().Stats()
			c["pcie.h2d_mb"] += float64(h2d) / 1e6
			c["pcie.d2h_mb"] += float64(d2h) / 1e6
			c["pcie.transfers"] += float64(dmas)
			c["gpu.kernels"] += float64(g.Device().KernelsRun())
			c["gpu.blocks_run"] += float64(g.Device().BlocksRun())
			for _, busy := range g.Device().MPBusy() {
				c["gpu.mp_busy_vms"] += busy.Milliseconds()
			}
			c["gpu.membw_busy_vms"] += g.Device().MemBandwidthResource().Busy().Milliseconds()
		}
	}
	return c
}

// checkWarm is the oracle every workload shares: the host page cache was
// warm, so the measured phase must not have touched the disk.
func checkWarm(workload string, layer map[string]float64) error {
	if seeks := layer["disk.seeks"]; seeks != 0 {
		return fmt.Errorf("%s: %v disk seeks on a warm host cache", workload, seeks)
	}
	return nil
}

// phase brackets a measured phase with counter snapshots.
type phase struct {
	systems []*gpufs.System
	before  map[string]float64
}

func beginPhase(systems ...*gpufs.System) *phase {
	return &phase{systems: systems, before: counters(systems)}
}

// gauges are the layer values that are levels, not counts: merging two
// phases keeps the larger one.
var gauges = map[string]bool{"hostfs.cache_resident_mb": true, "rpc.max_queue_depth": true, "rpc.workers": true}

// raw diffs the counters and reads the gauges.
func (p *phase) raw() map[string]float64 {
	l := counters(p.systems)
	for k, v := range p.before {
		l[k] -= v
	}
	for _, sys := range p.systems {
		l["rpc.workers"] += float64(sys.Server().Workers())
		l["hostfs.cache_resident_mb"] += float64(sys.Host().CacheResident()) / 1e6
		for i := 0; i < sys.NumGPUs(); i++ {
			l["rpc.max_queue_depth"] = math.Max(l["rpc.max_queue_depth"],
				float64(sys.GPU(i).FS().Client().MaxQueueDepth()))
		}
	}
	return l
}

// mergeRaw adds the raw layer values of another phase into dst.
func mergeRaw(dst, src map[string]float64) {
	for k, v := range src {
		if gauges[k] {
			dst[k] = math.Max(dst[k], v)
		} else {
			dst[k] += v
		}
	}
}

// derive turns raw layer values into the per-layer metrics: it adds the
// ratios, all over the phases' total virtual makespan, and drops the
// helper counts.
func derive(l map[string]float64, makespan simtime.Duration) map[string]float64 {
	ratio := func(name, num, den string) {
		if l[den] > 0 {
			l[name] = l[num] / l[den]
		}
	}
	ratio("core.prefetch_useful_ratio", "core.prefetch_used", "core.prefetch_issued")
	ratio("core.replay_useful_ratio", "core.replay_used", "core.replay_issued")
	if n := l["pcie.transfers"]; n > 0 {
		l["pcie.bytes_per_transfer"] = (l["pcie.h2d_mb"] + l["pcie.d2h_mb"]) * 1e6 / n
	}
	if ms := makespan.Milliseconds(); ms > 0 && l["rpc.workers"] > 0 {
		l["rpc.daemon_util"] = l["rpc.daemon_busy_vms"] / l["rpc.workers"] / ms
	}
	if total := l["core.cache_hits"] + l["core.cache_misses"]; total > 0 {
		l["core.cache_hit_ratio"] = l["core.cache_hits"] / total
	}
	for _, k := range []string{"core.prefetch_used", "core.replay_used", "core.cache_hits", "core.cache_misses", "rpc.workers"} {
		delete(l, k)
	}
	return l
}

// finish is derive(raw()) for a workload with a single measured phase.
func (p *phase) finish(makespan simtime.Duration) map[string]float64 {
	return derive(p.raw(), makespan)
}

// ---- benchmark-side spans around BlockCtx calls ----

type opKind uint8

const (
	opGopen opKind = iota
	opGread
	opGwrite
	opGfsync
	opGclose
	numOpKinds
)

var opNames = [numOpKinds]string{"gopen", "gread", "gwrite", "gfsync", "gclose"}

// blockLog is one threadblock's call log. Only its own block's goroutine
// touches it while the kernel runs.
type blockLog struct {
	idx        int
	start, end simtime.Time
	api        simtime.Duration
	calls      [numOpKinds][]simtime.Duration
	userOps    []simtime.Duration
	failed     int64
	rec        *recorder // traced rep only
	spans      []span
}

// mark is the two clocks read before a call.
type mark struct {
	v simtime.Time
	h time.Duration
}

func (b *blockLog) begin(c *gpufs.BlockCtx) mark {
	m := mark{v: c.Clock.Now()}
	if b.rec != nil {
		m.h = b.rec.hostNow()
	}
	return m
}

// done closes the span opened by begin around one BlockCtx call. userOp
// says whether the call is one of the workload's user operations.
func (b *blockLog) done(c *gpufs.BlockCtx, k opKind, m mark, userOp bool) {
	now := c.Clock.Now()
	d := now.Sub(m.v)
	b.api += d
	b.calls[k] = append(b.calls[k], d)
	if userOp {
		b.userOps = append(b.userOps, d)
	}
	if b.rec != nil {
		b.spans = append(b.spans, span{
			name: opNames[k], id: b.idx, parent: "block",
			vstart: m.v, vend: now, hstart: m.h, hend: b.rec.hostNow(),
		})
	}
}

// The five BlockCtx calls the workloads make, each inside its span.

func (b *blockLog) gopen(c *gpufs.BlockCtx, path string, flags int) (int, error) {
	m := b.begin(c)
	fd, err := c.Gopen(path, flags)
	b.done(c, opGopen, m, false)
	return fd, err
}

func (b *blockLog) gread(c *gpufs.BlockCtx, fd int, dst []byte, off int64, userOp bool) (int, error) {
	m := b.begin(c)
	n, err := c.Gread(fd, dst, off)
	b.done(c, opGread, m, userOp)
	return n, err
}

func (b *blockLog) gwrite(c *gpufs.BlockCtx, fd int, src []byte, off int64) error {
	m := b.begin(c)
	_, err := c.Gwrite(fd, src, off)
	b.done(c, opGwrite, m, true)
	return err
}

func (b *blockLog) gfsync(c *gpufs.BlockCtx, fd int, userOp bool) error {
	m := b.begin(c)
	err := c.Gfsync(fd)
	b.done(c, opGfsync, m, userOp)
	return err
}

func (b *blockLog) gclose(c *gpufs.BlockCtx, fd int) error {
	m := b.begin(c)
	err := c.Gclose(fd)
	b.done(c, opGclose, m, false)
	return err
}

// kernelLog collects the block logs of one or more launches of a rep.
type kernelLog struct {
	blocks []*blockLog
	rec    *recorder
}

// launch runs one kernel with a call log per block and returns the
// kernel's virtual completion time.
func (k *kernelLog) launch(g *gpufs.GPU, name string, start simtime.Time, blocks, threads int,
	body func(c *gpufs.BlockCtx, b *blockLog) error) (simtime.Time, error) {
	logs := make([]*blockLog, blocks)
	for i := range logs {
		logs[i] = &blockLog{idx: i, rec: k.rec}
	}
	var h0 time.Duration
	if k.rec != nil {
		h0 = k.rec.hostNow()
	}
	end, err := g.Launch(start, blocks, threads, func(c *gpufs.BlockCtx) error {
		b := logs[c.Idx]
		m := b.begin(c)
		b.start = m.v
		err := body(c, b)
		b.end = c.Clock.Now()
		if b.rec != nil {
			b.spans = append(b.spans, span{
				name: "block", id: b.idx, parent: name,
				vstart: b.start, vend: b.end, hstart: m.h, hend: b.rec.hostNow(),
			})
		}
		return err
	})
	k.blocks = append(k.blocks, logs...)
	if k.rec != nil {
		k.rec.add(span{name: name, id: -1, vstart: start, vend: end, hstart: h0, hend: k.rec.hostNow()})
		for _, b := range logs {
			k.rec.add(b.spans...)
		}
	}
	if err != nil {
		return end, fmt.Errorf("%s: %w", name, err)
	}
	return end, nil
}

// fold moves the block logs into the rep: user-operation latencies,
// failures, and the gpufs.* per-layer metrics.
func (k *kernelLog) fold(r *rep) {
	var api, blockTime simtime.Duration
	var calls [numOpKinds][]simtime.Duration
	for _, b := range k.blocks {
		api += b.api
		blockTime += b.end.Sub(b.start)
		r.opLat = append(r.opLat, b.userOps...)
		r.failed += b.failed
		for op := range calls {
			calls[op] = append(calls[op], b.calls[op]...)
		}
	}
	for op, d := range calls {
		r.layer["gpufs."+opNames[op]+"_vus_p50"] = vus(percentile(d, 50))
	}
	if blockTime > 0 {
		r.layer["gpufs.api_share"] = float64(api) / float64(blockTime)
	}
}
