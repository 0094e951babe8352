package rpc

import (
	"testing"

	"gpufs/internal/simtime"
)

// TestOpNamesUnique checks every op renders a distinct wire name. The
// enum-to-name drift itself is caught at compile time by the knownOps
// array guard next to String() — adding an op without a name no longer
// builds — so only name collisions remain a runtime concern.
func TestOpNamesUnique(t *testing.T) {
	seen := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("op %d has an empty name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("ops %d and %d share the name %q", prev, op, name)
		}
		seen[name] = op
	}
}

// TestShardRoutingStableAndCovering checks the lane→shard hash: in range,
// deterministic across clients, identical on every call, and spread over
// all shards for a realistic block count.
func TestShardRoutingStableAndCovering(t *testing.T) {
	const shards = 4
	srv, cl := shardedHarness(t, shards, shards)
	if cl.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", cl.Shards(), shards)
	}

	other := srv.NewClient(1, cl.Link())
	covered := make(map[int]bool)
	for lane := -8; lane < 56; lane++ {
		s := cl.ShardFor(lane)
		if s < 0 || s >= shards {
			t.Fatalf("lane %d routed to shard %d, out of [0,%d)", lane, s, shards)
		}
		if again := cl.ShardFor(lane); again != s {
			t.Fatalf("lane %d unstable: %d then %d", lane, s, again)
		}
		if os := other.ShardFor(lane); os != s {
			t.Fatalf("lane %d differs across clients: %d vs %d", lane, s, os)
		}
		if bs := cl.Bind(lane).Shard(); bs != s {
			t.Fatalf("Bind(%d) landed on shard %d, ShardFor says %d", lane, bs, s)
		}
		covered[s] = true
	}
	if len(covered) != shards {
		t.Fatalf("56 lanes covered only %d of %d shards", len(covered), shards)
	}

	// Bind to the already-bound shard must return the same view, not a copy.
	for lane := 0; lane < 64; lane++ {
		if cl.ShardFor(lane) == cl.Shard() {
			if cl.Bind(lane) != cl {
				t.Fatalf("Bind(%d) to the current shard allocated a new view", lane)
			}
			break
		}
	}

	// A single-ring transport routes everything to shard 0.
	_, one := shardedHarness(t, 1, 1)
	for lane := -3; lane < 40; lane++ {
		if s := one.ShardFor(lane); s != 0 {
			t.Fatalf("single-ring transport routed lane %d to shard %d", lane, s)
		}
	}
}

// TestDedupIsolationAcrossShards pins the per-ring dedup contract: a
// sequence number applied on one ring must be invisible to every other
// ring, so a fault burst on shard A can never satisfy (or poison) a retry
// on shard B.
func TestDedupIsolationAcrossShards(t *testing.T) {
	_, cl := shardedHarness(t, 4, 4)
	sh0, sh1 := cl.t.shards[0], cl.t.shards[1]

	sh0.dedupStore(7, nil)
	if hit, _ := sh1.dedupLookup(7); hit {
		t.Fatalf("seq applied on shard 0 visible to shard 1's dedup table")
	}
	if hit, _ := sh0.dedupLookup(7); !hit {
		t.Fatalf("seq applied on shard 0 not found on its own ring")
	}
}

// TestOutOfOrderCompletions drives a slow request on one ring and a quick
// one on another: the quick one is sent later but must be delivered first,
// and the completion queue must match every response to its frame.
func TestOutOfOrderCompletions(t *testing.T) {
	_, cl := shardedHarness(t, 4, 4)

	// Two lanes on distinct rings.
	slowLane, fastLane := 0, 1
	for cl.ShardFor(fastLane) == cl.ShardFor(slowLane) {
		fastLane++
	}
	base := simtime.Time(simtime.Millisecond)

	slowClk := simtime.NewClock(base)
	if err := cl.Bind(slowLane).Do(slowClk, OpReadPages, busy(simtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	fastClk := simtime.NewClock(base.Add(simtime.Microsecond))
	if err := cl.Bind(fastLane).Do(fastClk, OpStat, nop); err != nil {
		t.Fatal(err)
	}

	if fastClk.Now() >= slowClk.Now() {
		t.Fatalf("stat (done %v) did not overtake the slow read (done %v)",
			fastClk.Now(), slowClk.Now())
	}
	if ooo := cl.OutOfOrderCompletions(); ooo < 1 {
		t.Fatalf("OutOfOrderCompletions = %d, want >= 1", ooo)
	}
	if un := cl.UnmatchedCompletions(); un != 0 {
		t.Fatalf("UnmatchedCompletions = %d, want 0", un)
	}
	if m := cl.Completions(); m != 2 {
		t.Fatalf("Completions = %d, want 2", m)
	}
}

// TestWorkerPoolOverlap launches the same burst of requests on a
// four-worker and a one-worker daemon pool (ring count held fixed): the
// pool must finish strictly earlier, and the single worker must reproduce
// the serialized daemon.
func TestWorkerPoolOverlap(t *testing.T) {
	finish := func(workers int) simtime.Time {
		_, cl := shardedHarness(t, 4, workers)
		base := simtime.Time(simtime.Millisecond)
		var last simtime.Time
		for lane := 0; lane < 8; lane++ {
			clk := simtime.NewClock(base)
			if err := cl.Bind(lane).Do(clk, OpStat, busy(4*simtime.Microsecond)); err != nil {
				t.Fatal(err)
			}
			if clk.Now() > last {
				last = clk.Now()
			}
		}
		return last
	}

	serial, pooled := finish(1), finish(4)
	if pooled >= serial {
		t.Fatalf("4-worker burst finished at %v, not earlier than 1-worker %v", pooled, serial)
	}
}
