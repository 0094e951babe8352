package gpufs_test

import (
	"testing"

	"gpufs"
	"gpufs/internal/workloads"
)

// TestStrongOrderingBitIdenticalBaseline pins the generic syscall
// subsystem's compatibility contract: under strong ordering (the config
// default) on a 1-shard, 1-worker machine, the single-block grep workload
// must reproduce the pre-subsystem virtual timeline EXACTLY — same
// elapsed tick count, same RPC total. Routing every call through the
// typed descriptor path, the per-lane FIFO fence, and the syscall-table
// dispatch must be invisible when the ordering class is strong; any drift
// in these two numbers means the refactor changed semantics, not just
// structure. (The numbers are deterministic because a single block issues
// a serial request chain — multi-block runs race on daemon arrival order
// and are pinned elsewhere, by the conformance suites.)
func TestStrongOrderingBitIdenticalBaseline(t *testing.T) {
	const (
		wantElapsed = 18089863 // virtual ns, pinned before the gsys layer landed
		wantTotal   = 135      // RPC requests end to end
	)
	for _, ordering := range []string{"", "strong"} {
		cfg := gpufs.ScaledConfig(1.0 / 256)
		cfg.RPCShards = 1
		cfg.DaemonWorkers = 1
		cfg.SyscallOrdering = ordering
		// The lock-free hot path (ISSUE 8) must be a pure superset: with
		// zero-copy off and a single allocator shard, the pre-ISSUE-8
		// timeline reproduces exactly.
		cfg.ZeroCopyRead = false
		cfg.FrameShards = 1
		// And the checkpoint engine (ISSUE 10): with no capture installed
		// its entire hot-path footprint is one nil atomic load on the
		// gwrite path, and the zero-default byte budget allocates nothing.
		// Migration is a fleet-level policy (MigrateOnDrain, default off)
		// that never engages single-host — this timeline must not move.
		cfg.CkptMaxBytes = 0
		sys, err := gpufs.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dict := workloads.MakeDictionary(50)
		if err := sys.WriteHostFile("/base/dict.txt", dict.Encode()); err != nil {
			t.Fatal(err)
		}
		tree, err := workloads.MakeTree(sys.Host(), sys.HostClock(), workloads.TreeSpec{
			Dir: "/base/src", NumFiles: 64, TotalBytes: 64 * 2048,
			Text: workloads.TextSpec{Dict: dict, DictFraction: 0.35, Seed: 31},
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTime()
		res, err := workloads.GrepGPUfs(sys, 0, "/base/dict.txt", tree.ListPath,
			"/base/out.txt", cfg.GrepGPURate, 1, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.Elapsed) != wantElapsed || sys.Server().TotalRequests() != wantTotal {
			t.Fatalf("ordering %q drifted from the pinned baseline: elapsed=%d (want %d) requests=%d (want %d)",
				ordering, int64(res.Elapsed), wantElapsed, sys.Server().TotalRequests(), wantTotal)
		}
	}
}
