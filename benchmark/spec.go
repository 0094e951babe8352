package main

import "encoding/json"

// The benchmark's contract: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root is `go run . -spec` output; bench_test.go fails when the two drift.
//
// Naming rule: every name says which clock it reads. virt_*, *_vms and
// *_vus are VIRTUAL time (what the modelled FERMI machine would take);
// host_*, *_s and *_ns are HOST time (what the simulator takes). Virtual
// durations carry the units vms/vus so they cannot be mistaken for
// wall-clock milliseconds.

// runSeconds is the measuring time of one driver run (BENCHMARK.json
// run_seconds). A whole invocation adds one warm-up rep and the set-up of
// every rep on top.
const runSeconds = 12

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, so each is defined over "user operations": a Gread/Gwrite
// (seq_cold, rand_evict, hot_mixed — plus Gfsync on hot_mixed), one file
// opened-read-closed (open_scan), or one job (serve_open, fleet_burst).
var endToEnd = []e2eDef{
	{"setup_s", "s", lower, 0.25},
	{"host_s", "s", lower, 0.15},
	{"host_alloc_mb", "MB", lower, 0.10},
	{"virt_mbps", "MB/s", higher, 0.10},
	{"lat_p50_vms", "vms", lower, 0.15},
	{"lat_p99_vms", "vms", lower, 0.15},
}

// perLayer is named <module>.<metric>. Counters are diffed around the
// measured phase of the GOMAXPROCS(1) pass; a metric a workload does not
// exercise reads 0 there.
var perLayer = []layerDef{
	// gpufs: benchmark-side spans around each BlockCtx call.
	{"gpufs.gopen_vus_p50", "vus", lower},
	{"gpufs.gread_vus_p50", "vus", lower},
	{"gpufs.gwrite_vus_p50", "vus", lower},
	{"gpufs.gfsync_vus_p50", "vus", lower},
	{"gpufs.gclose_vus_p50", "vus", lower},
	{"gpufs.api_share", "ratio", lower},
	{"gpufs.trace_overhead_pct", "%", lower},
	{"gpufs.virt_wr_mbps", "MB/s", higher},

	// core: lookup and paging, read-ahead and history, opens and cleaner.
	{"core.radix_lockfree", "count", higher},
	{"core.radix_locked", "count", lower},
	{"core.pages_faulted", "count", lower},
	{"core.pages_reclaimed", "count", lower},
	{"core.frame_steals", "count", lower},
	{"core.zero_copy_reads", "count", higher},
	{"core.prefetch_issued", "count", higher},
	{"core.prefetch_useful_ratio", "ratio", higher},
	{"core.replay_issued", "count", higher},
	{"core.replay_useful_ratio", "ratio", higher},
	{"core.history_replays", "count", higher},
	{"core.opens", "count", lower},
	{"core.host_opens", "count", lower},
	{"core.closed_reuses", "count", higher},
	{"core.cleaned_pages", "count", higher},
	{"core.cleaner_kicks", "count", lower},
	{"core.cache_hit_ratio", "ratio", higher},

	{"gsys.strong_calls", "count", lower},
	{"gsys.relaxed_calls", "count", higher},

	{"rpc.requests", "count", lower},
	{"rpc.requests_read", "count", lower},
	{"rpc.daemon_busy_vms", "vms", lower},
	{"rpc.daemon_util", "ratio", lower},
	{"rpc.max_queue_depth", "count", lower},
	{"rpc.retries", "count", lower},
	{"rpc.ooo_completions", "count", higher},

	{"pcie.h2d_mb", "MB", lower},
	{"pcie.d2h_mb", "MB", lower},
	{"pcie.transfers", "count", lower},
	{"pcie.bytes_per_transfer", "B", higher},

	{"hostfs.cache_resident_mb", "MB", higher},

	{"disk.seeks", "count", lower},
	{"disk.read_mb", "MB", lower},
	{"disk.busy_vms", "vms", lower},

	{"wrapfs.validations", "count", lower},
	{"wrapfs.invalidations", "count", lower},

	{"gpu.kernels", "count", lower},
	{"gpu.blocks_run", "count", lower},
	{"gpu.mp_busy_vms", "vms", lower},
	{"gpu.membw_busy_vms", "vms", lower},

	{"serve.batches", "count", lower},
	{"serve.jobs_per_launch", "ratio", higher},
	{"serve.affinity_hit_ratio", "ratio", higher},
	{"serve.stolen", "count", lower},
	{"serve.spilled", "count", lower},
	{"serve.rejected", "count", lower},
	{"serve.queue_wait_vms_p50", "vms", lower},
	{"serve.run_vms_p50", "vms", lower},
	{"serve.lat_idle_p50_vms", "vms", lower},
	{"serve.sustained_rate", "1/s", higher},
	{"serve.driver_lag_vms_p99", "vms", lower},

	{"fleet.submit_ns", "ns", lower},
	{"fleet.rehomes", "count", lower},
	{"fleet.events", "count", lower},

	{"cudart.pipeline_mbps", "MB/s", higher},
	{"cudart.wholefile_mbps", "MB/s", higher},
	{"cudart.wholefile_err_pct", "%", lower},

	{"simtime.repeat_delta_pct", "%", lower},
	{"simtime.sched_spread_pct", "%", lower},

	{"bench.fail_frac", "ratio", lower},
	{"bench.free_pass_fail_frac", "ratio", lower},

	// Layer probes, host cost.
	{"radix.lookup_ns", "ns", lower},
	{"radix.insert_ns", "ns", lower},
	{"epoch.pin_ns", "ns", lower},
	{"pcache.alloc_release_ns", "ns", lower},
	{"gsys.frame_codec_ns", "ns", lower},
	{"gsys.frame_codec_allocs", "count", lower},
	{"simtime.acquire_ns", "ns", lower},
	{"metrics.observe_ns", "ns", lower},
	{"trace.record_ns", "ns", lower},
	{"ckpt.codec_mbps", "MB/s", higher},

	// Layer probes, golden virtual costs.
	{"rpc.roundtrip_vus", "vus", lower},
	{"pcie.dma_32k_vus", "vus", lower},
	{"hostfs.pread_warm_32k_vus", "vus", lower},
	{"disk.seek_read_32k_vus", "vus", lower},
	{"core.hit_32k_vus", "vus", lower},
	{"core.fault_32k_vus", "vus", lower},
	{"core.vec_fill_8p_vus", "vus", lower},
}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	defs := make([]workloadDef, len(allWorkloads))
	for i, w := range allWorkloads {
		defs[i] = workloadDef{w.name, w.why}
	}
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eDef      `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  defs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}
