package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gpufs/internal/core"
	"gpufs/internal/simtime"
)

// TenantStats is one tenant's admission-control and completion counters.
type TenantStats struct {
	// Submitted counts admitted jobs; Rejected counts OverloadError
	// refusals; MaxQueued is the high-water mark of jobs in the system.
	Submitted, Rejected int64
	MaxQueued           int
	// Completed and Failed partition finished jobs; HandedOff counts jobs
	// DrainForHandoff returned unexecuted for resubmission elsewhere.
	Completed, Failed, HandedOff int64
}

// GPUStats is one device's serving counters.
type GPUStats struct {
	// Routed counts jobs the placement layer sent here; Stolen counts
	// jobs this worker took from another GPU's queue; Spilled counts
	// jobs routed AWAY because this (affine) queue was saturated;
	// Requeued counts retry re-insertions.
	Routed, Stolen, Spilled, Requeued int64
	// Batches counts kernel launches; Launched counts jobs across them
	// (Launched/Batches is the realized batching factor); MaxBatch is
	// the largest single launch.
	Batches, Launched int64
	MaxBatch          int
	// Completed and Failed partition jobs finalized on this device;
	// AffinityHits counts completed jobs whose file was buffer-cache
	// resident here at batch assembly.
	Completed, Failed, AffinityHits int64
	// Restarts counts fault-driven GPU.Restart recoveries.
	Restarts int64
	// HandedOff counts jobs flushed from this device's queue by
	// DrainForHandoff — never launched here, resubmitted elsewhere.
	HandedOff int64
	// CacheStats are this device's buffer-cache speculation and cleaning
	// counters: read-ahead pages issued, used and wasted, the subset issued
	// on a recorded profile's word, and pages the background cleaner wrote
	// back or pre-evicted off the fault critical path.
	core.CacheStats
	// ZeroCopyReads counts cache-hit reads served in place from the
	// pinned frame (one device-memory pass instead of a copy);
	// FrameSteals counts allocations that took a frame from another
	// shard's free list. Both are 0 with the ISSUE 8 knobs off.
	ZeroCopyReads, FrameSteals int64
	// ShardLanes is the largest number of distinct RPC ring shards one
	// batch's blocks spanned on this device — how wide a dispatch round
	// spread across the sharded host-service rings (1 with a single
	// ring).
	ShardLanes int
}

// Stats is a consistent snapshot of the server's counters.
type Stats struct {
	// Tenants maps tenant name to its counters.
	Tenants map[string]TenantStats
	// GPUs holds per-device counters, indexed by GPU id.
	GPUs []GPUStats
	// Queued and Inflight are the instantaneous backlog: jobs waiting, and
	// jobs launched and not yet completed.
	Queued, Inflight int
	// InflightIDs are the IDs of the Inflight jobs, by GPU and batch order.
	InflightIDs []uint64
	// Latencies are the virtual admission-to-completion times of all
	// finished jobs, in completion order.
	Latencies []simtime.Duration
	// Now is the server's virtual time.
	Now simtime.Time
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Tenants: make(map[string]TenantStats, len(s.tenants)),
		GPUs:    append([]GPUStats(nil), s.gstats...),
		Now:     simtime.Time(s.vnow.Load()),
	}
	for name, tn := range s.tenants {
		st.Tenants[name] = tn.stats
	}
	for g, q := range s.queues {
		st.Queued += q.size
		for _, j := range s.running[g] {
			if !j.completed {
				st.InflightIDs = append(st.InflightIDs, j.id)
			}
		}
	}
	st.Inflight = len(st.InflightIDs)
	for g := range st.GPUs {
		st.GPUs[g].CacheStats = s.sys.GPU(g).FS().CacheStats()
		st.GPUs[g].ZeroCopyReads = s.sys.GPU(g).FS().ZeroCopyReads()
		st.GPUs[g].FrameSteals = s.sys.GPU(g).FS().FrameSteals()
	}
	st.Latencies = append([]simtime.Duration(nil), s.lat...)
	return st
}

// Completed sums completed jobs across GPUs.
func (st Stats) Completed() int64 {
	var n int64
	for _, g := range st.GPUs {
		n += g.Completed
	}
	return n
}

// Failed sums failed jobs across GPUs.
func (st Stats) Failed() int64 {
	var n int64
	for _, g := range st.GPUs {
		n += g.Failed
	}
	return n
}

// HandedOff sums jobs DrainForHandoff flushed across GPUs.
func (st Stats) HandedOff() int64 {
	var n int64
	for _, g := range st.GPUs {
		n += g.HandedOff
	}
	return n
}

// AffinityHitRate is the fraction of completed jobs that found their file
// resident in the executing GPU's buffer cache.
func (st Stats) AffinityHitRate() float64 {
	var hits, done int64
	for _, g := range st.GPUs {
		hits += g.AffinityHits
		done += g.Completed
	}
	if done == 0 {
		return 0
	}
	return float64(hits) / float64(done)
}

// PrefetchHitRate is the fraction of resolved speculative pages that a
// demand access consumed (used / (used + wasted)) across all GPUs, or 0
// with no resolved speculation.
func (st Stats) PrefetchHitRate() float64 {
	var used, wasted int64
	for _, g := range st.GPUs {
		used += g.PrefetchUsed
		wasted += g.PrefetchWasted
	}
	if used+wasted == 0 {
		return 0
	}
	return float64(used) / float64(used+wasted)
}

// BatchFactor is the mean jobs per kernel launch.
func (st Stats) BatchFactor() float64 {
	var jobs, batches int64
	for _, g := range st.GPUs {
		jobs += g.Launched
		batches += g.Batches
	}
	if batches == 0 {
		return 0
	}
	return float64(jobs) / float64(batches)
}

// LatencyPercentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of finished jobs' virtual latencies, or 0 with no samples.
func (st Stats) LatencyPercentile(p float64) simtime.Duration {
	return nearestRank(st.sortedLatencies(), p)
}

func (st Stats) sortedLatencies() []simtime.Duration {
	sorted := append([]simtime.Duration(nil), st.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// nearestRank is the smallest sample with at least p percent of the sorted
// samples at or below it: p99 of ten samples is the largest.
func nearestRank(sorted []simtime.Duration, p float64) simtime.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders a human-readable report: totals, latency percentiles,
// and per-GPU / per-tenant tables.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve: %d completed, %d failed in %.3fs virtual (%.1f jobs/launch, %.0f%% affinity hits)\n",
		st.Completed(), st.Failed(), st.Now.Seconds(), st.BatchFactor(), 100*st.AffinityHitRate())
	var pfIssued, pfUsed, pfWasted, carried, cleaned int64
	for _, g := range st.GPUs {
		pfIssued += g.PrefetchIssued
		pfUsed += g.PrefetchUsed
		pfWasted += g.PrefetchWasted
		carried += g.OpenFilled
		cleaned += g.CleanedPages
	}
	fmt.Fprintf(&b, "cache: %d pages prefetched, %.0f%% hit rate (%d wasted), %d carried in by their gopen, %d cleaned in background\n",
		pfIssued, 100*st.PrefetchHitRate(), pfWasted, carried, cleaned)
	var zc, steals int64
	for _, g := range st.GPUs {
		zc += g.ZeroCopyReads
		steals += g.FrameSteals
	}
	if zc > 0 || steals > 0 {
		fmt.Fprintf(&b, "hot path: %d zero-copy hit reads, %d cross-shard frame steals\n", zc, steals)
	}
	var rIssued, rUsed, rWasted, hReplays int64
	for _, g := range st.GPUs {
		rIssued += g.ReplayIssued
		rUsed += g.ReplayUsed
		rWasted += g.ReplayWasted
		hReplays += g.HistoryReplays
	}
	if hReplays > 0 {
		fmt.Fprintf(&b, "history: %d profile replays (%d pages, %d used, %d wasted)\n",
			hReplays, rIssued, rUsed, rWasted)
	}
	if lat := st.sortedLatencies(); len(lat) > 0 {
		fmt.Fprintf(&b, "latency: p50 %v  p90 %v  p99 %v  max %v\n",
			nearestRank(lat, 50), nearestRank(lat, 90), nearestRank(lat, 99), nearestRank(lat, 100))
	}
	for g, gs := range st.GPUs {
		fmt.Fprintf(&b, "gpu %d: %d launches / %d jobs (max batch %d), %d stolen, %d spilled, %d requeued, %d restarts\n",
			g, gs.Batches, gs.Launched, gs.MaxBatch, gs.Stolen, gs.Spilled, gs.Requeued, gs.Restarts)
	}
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := st.Tenants[name]
		fmt.Fprintf(&b, "tenant %s: %d submitted, %d rejected, %d completed, %d failed, %d handed off (max queued %d)\n",
			name, ts.Submitted, ts.Rejected, ts.Completed, ts.Failed, ts.HandedOff, ts.MaxQueued)
	}
	return b.String()
}
