package bench

import "testing"

// TestOrderingRelaxedBeatsStrong pins the ISSUE 7 acceptance criterion:
// with RPCShards > 1 and DaemonWorkers >= 4, relaxed ordering beats
// strong on the metadata-heavy grep point. The point is single-block and
// cache-resident, so both measurements are deterministic.
func TestOrderingRelaxedBeatsStrong(t *testing.T) {
	const scale = 1.0 / 256
	strong, err := orderingPoint(scale, 4, 0)
	if err != nil {
		t.Fatalf("strong: %v", err)
	}
	relaxed, err := orderingPoint(scale, 4, 4)
	if err != nil {
		t.Fatalf("relaxed: %v", err)
	}
	if float64(relaxed) > 0.95*float64(strong) {
		t.Fatalf("relaxed (%v) does not beat strong (%v) by at least 5%%", relaxed, strong)
	}
	again, err := orderingPoint(scale, 4, 4)
	if err != nil {
		t.Fatalf("relaxed rerun: %v", err)
	}
	if again != relaxed {
		t.Fatalf("relaxed point is nondeterministic: %v then %v", relaxed, again)
	}
}
