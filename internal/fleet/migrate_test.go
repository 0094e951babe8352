package fleet

import (
	"errors"
	"strings"
	"testing"

	"gpufs"
	"gpufs/internal/ckpt"
	"gpufs/internal/metrics"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
)

// Migration remediation tests: the migrate-first drain path and every one
// of its fallbacks. The invariant under all of them is the one the chaos
// oracle enforces statistically — no admitted job is ever lost, duplicated,
// or leaked ErrHandedOff — plus the migration-specific rules: an image is
// restored onto the replacement exactly when the capture was trustworthy,
// and every failure (capture error, byte-budget overrun, mid-snapshot
// fatal XID, restore failure) degrades to plain drain+restart, never to a
// dead slot or a cold loss.

// hostEventKinds returns the ordered event kinds logged for hostID.
func hostEventKinds(cp *ControlPlane, hostID int) []string {
	var kinds []string
	for _, ev := range cp.Events() {
		if ev.Host == hostID {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

func wantEventKinds(t *testing.T, cp *ControlPlane, hostID int, want []string) {
	t.Helper()
	kinds := hostEventKinds(cp, hostID)
	if len(kinds) != len(want) {
		t.Fatalf("host %d events %v, want %v", hostID, kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("host %d events %v, want %v", hostID, kinds, want)
		}
	}
}

// TestFleetMigrateWarmHandoff walks the happy path: a cordoned host is
// checkpointed (not just drained), the queued jobs are handed off exactly
// once via the checkpoint's freeze, and the replacement enters rotation
// with the image restored — warm — while the handed-off jobs complete
// elsewhere with one rehome each.
func TestFleetMigrateWarmHandoff(t *testing.T) {
	ff := newFakeFleet(false)
	reg := metrics.New()
	cp, err := New(Config{Metrics: reg}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	sick := ff.fake(0, 0)
	sick.AdvanceTo(simtime.Time(1000)) // a non-zero capture timestamp
	sick.SetResident("/pinned", 64)    // draw the jobs to host 0
	var futs []*Future
	for i := 0; i < 5; i++ {
		fut, err := cp.Submit("t", job("/pinned"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	if a, _, _ := sick.Counts(); a != 5 {
		t.Fatalf("affinity routed %d/5 jobs to host 0", a)
	}

	if !cp.Cordon(0, "planned migration") {
		t.Fatal("Cordon(0) refused")
	}
	cp.AwaitRemediation()

	// The old machine executed nothing: all five came back through the
	// checkpoint's handoff, exactly once.
	if _, resolved, handed := sick.Counts(); resolved != 0 || handed != 5 {
		t.Fatalf("checkpointed host resolved=%d handed=%d, want 0/5", resolved, handed)
	}
	// The replacement was restored from the image before entering rotation,
	// and the image manifests the handed-off jobs with their provenance.
	nb := ff.fake(0, 1)
	if nb == nil {
		t.Fatal("no replacement was built")
	}
	img := nb.Restored()
	if img == nil {
		t.Fatal("replacement entered rotation cold: Restore never ran")
	}
	if img.SourceHost != 0 {
		t.Fatalf("image SourceHost = %d, want 0", img.SourceHost)
	}
	if len(img.Queued) != 5 {
		t.Fatalf("image manifests %d queued jobs, want 5", len(img.Queued))
	}

	// The handed-off jobs were re-routed and complete on
	// whichever healthy machine they landed on.
	waitFor(t, "rerouted jobs to queue", func() bool {
		n := ff.fake(1, 0).Load() + ff.fake(2, 0).Load() + nb.Load()
		return n == 5
	})
	for _, k := range [][2]int{{0, 1}, {1, 0}, {2, 0}} {
		if b := ff.fake(k[0], k[1]); b != nil {
			b.Complete(-1)
		}
	}
	for i, fut := range futs {
		res := fut.Wait()
		if res.Err != nil {
			t.Fatalf("job %d failed across migration: %v", i, res.Err)
		}
		if res.Rehomes != 1 {
			t.Fatalf("job %d rehomed %d times, want 1", i, res.Rehomes)
		}
	}

	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Migrations != 1 {
		t.Fatalf("remediations=%d migrations=%d, want 1/1", snap.Remediations, snap.Migrations)
	}
	wantEventKinds(t, cp, 0, []string{"cordon", "drain", "checkpoint", "handoff", "migrate", "replace"})
	// Metrics: one migration, no fallback, non-negative latency accounted.
	var mig, fb int64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "gpufs_fleet_migrations_total":
			mig = s.Value
		case "gpufs_fleet_ckpt_fallbacks_total":
			fb = s.Value
		}
	}
	if mig != 1 || fb != 0 {
		t.Fatalf("metrics: migrations=%d fallbacks=%d, want 1/0", mig, fb)
	}
	cp.Drain()
}

// TestFleetMigrateFallbackCheckpointError wedges the capture itself: the
// backend's Checkpoint fails before freezing anything, and the remediator
// must fall back to the plain drain — same handoff guarantees, replacement
// enters rotation cold, and the slot is healthy again. A checkpoint bug
// costs warmth, never jobs.
func TestFleetMigrateFallbackCheckpointError(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{}, 3, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	sick := ff.fake(0, 0)
	sick.SetResident("/pinned", 64)
	sick.SetCheckpointErr(errors.New("capture wedged: commit found the walk raced a write-back"))
	var futs []*Future
	for i := 0; i < 5; i++ {
		fut, err := cp.Submit("t", job("/pinned"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}

	cp.Cordon(0, "planned migration")
	cp.AwaitRemediation()

	// Fallback drained: nothing executed on the sick host, everything
	// handed off — via DrainForHandoff this time, not the checkpoint.
	if _, resolved, handed := sick.Counts(); resolved != 0 || handed != 5 {
		t.Fatalf("fallback host resolved=%d handed=%d, want 0/5", resolved, handed)
	}
	nb := ff.fake(0, 1)
	if nb == nil {
		t.Fatal("no replacement was built")
	}
	if nb.Restored() != nil {
		t.Fatal("replacement was restored from a failed capture")
	}
	waitFor(t, "rerouted jobs to queue", func() bool {
		return ff.fake(1, 0).Load()+ff.fake(2, 0).Load()+nb.Load() == 5
	})
	for _, k := range [][2]int{{0, 1}, {1, 0}, {2, 0}} {
		if b := ff.fake(k[0], k[1]); b != nil {
			b.Complete(-1)
		}
	}
	for i, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			t.Fatalf("job %d lost to a checkpoint failure: %v", i, res.Err)
		}
	}
	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Migrations != 0 {
		t.Fatalf("remediations=%d migrations=%d, want 1/0", snap.Remediations, snap.Migrations)
	}
	wantEventKinds(t, cp, 0, []string{"cordon", "drain", "ckpt-failed", "handoff", "replace"})
	cp.Drain()
}

// TestFleetMigrateFatalXIDSkipsCheckpoint pins the trust gate: a host
// cordoned BY a fatal XID is never checkpointed at all — its device memory
// is suspect, so the image would be too. The remediation is the plain
// drain+restart, with no checkpoint attempt and no fallback event (there
// was nothing to fall back from).
func TestFleetMigrateFatalXIDSkipsCheckpoint(t *testing.T) {
	ff := newFakeFleet(true)
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	ff.inj(0, 0).InjectXID(0, 79, 100) // fallen off the bus
	cp.AwaitRemediation()

	nb := ff.fake(0, 1)
	if nb == nil {
		t.Fatal("no replacement was built")
	}
	if nb.Restored() != nil {
		t.Fatal("an image captured from a fatally faulted device was restored")
	}
	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Migrations != 0 {
		t.Fatalf("remediations=%d migrations=%d, want 1/0", snap.Remediations, snap.Migrations)
	}
	wantEventKinds(t, cp, 0, []string{"cordon", "drain", "handoff", "replace"})
	cp.Drain()
}

// TestFleetMigrateDiscardMidSnapshotXID lands the fatal XID INSIDE the
// capture window: the cordon was benign (migration proceeds), but by the
// time the image is complete the device has fallen off the bus. The image
// overlaps memory whose integrity just failed, so it must be discarded —
// the handoff it performed still stands (exactly-once is not renegotiable)
// and the replacement enters rotation cold.
func TestFleetMigrateDiscardMidSnapshotXID(t *testing.T) {
	ff := newFakeFleet(false)
	cp, err := New(Config{}, 2, ff.factory)
	if err != nil {
		t.Fatal(err)
	}
	sick := ff.fake(0, 0)
	sick.SetResident("/pinned", 64)
	var futs []*Future
	for i := 0; i < 3; i++ {
		fut, err := cp.Submit("t", job("/pinned"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	// The hook fires between the checkpoint's freeze and its return: the
	// fatal XID lands mid-snapshot, and the hook does not return until the
	// health monitor has recorded it against the draining incarnation.
	inj := ff.inj(0, 0)
	sick.SetCheckpointHook(func() {
		inj.InjectXID(0, 79, 500)
		waitFor(t, "mid-snapshot XID recorded", func() bool {
			return cp.Snapshot().Hosts[0].FatalXIDs > 0
		})
	})

	cp.Cordon(0, "planned migration")
	cp.AwaitRemediation()

	nb := ff.fake(0, 1)
	if nb == nil {
		t.Fatal("no replacement was built")
	}
	if nb.Restored() != nil {
		t.Fatal("image tainted by a mid-snapshot fatal XID was restored")
	}
	// The handoff the checkpoint performed before the discard still counts:
	// the jobs re-route and complete, exactly once.
	if _, resolved, handed := sick.Counts(); resolved != 0 || handed != 3 {
		t.Fatalf("host resolved=%d handed=%d, want 0/3", resolved, handed)
	}
	waitFor(t, "rerouted jobs to queue", func() bool {
		return ff.fake(1, 0).Load()+nb.Load() == 3
	})
	for _, k := range [][2]int{{0, 1}, {1, 0}} {
		if b := ff.fake(k[0], k[1]); b != nil {
			b.Complete(-1)
		}
	}
	for i, fut := range futs {
		if res := fut.Wait(); res.Err != nil {
			t.Fatalf("job %d lost to the discard: %v", i, res.Err)
		}
	}
	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Migrations != 0 {
		t.Fatalf("remediations=%d migrations=%d, want 1/0", snap.Remediations, snap.Migrations)
	}
	wantEventKinds(t, cp, 0, []string{"cordon", "drain", "ckpt-discard", "handoff", "replace"})
	cp.Drain()
}

// TestFleetMigrateBudgetWedgeRealHost wedges a REAL host's checkpoint: the
// per-host config pins CkptMaxBytes to one byte, the test dirties device
// pages with a write kernel, and the cordon's capture dies with
// ckpt.ErrBudget mid-walk. The remediator must surface the budget error in
// the fallback event and still complete the remediation — the wedged
// capture has already frozen and handed off the queue, so the fallback
// DrainForHandoff finds nothing, and no job is lost either way.
func TestFleetMigrateBudgetWedgeRealHost(t *testing.T) {
	var syss [2]*gpufs.System
	factory := SimHostFactory(SimHostConfig{
		NumGPUs: 1,
		Serve:   serve.Config{QueueDepth: 64, MaxBatch: 4},
		Tune: func(cfg *gpufs.Config) {
			cfg.CkptMaxBytes = 1 // any real page capture overruns
		},
		Setup: func(hostID, incarnation int, sys *gpufs.System) error {
			if incarnation == 0 {
				syss[hostID] = sys
			}
			return sys.WriteHostFile("/wedge", []byte("budget wedge corpus, long enough to span a page of capture"))
		},
	})
	cp, err := New(Config{}, 2, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty device pages on host 0 so the capture has bytes to copy: a
	// write kernel through the full GPUfs path, left unsynced.
	if _, err := syss[0].GPU(0).Launch(0, 1, 8, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen("/wedge", gpufs.O_RDWR)
		if err != nil {
			return err
		}
		if _, err := c.Gwrite(fd, []byte("DIRTY"), 0); err != nil {
			return err
		}
		return c.Gclose(fd)
	}); err != nil {
		t.Fatalf("write kernel: %v", err)
	}

	cp.Cordon(0, "planned migration into a wedged budget")
	cp.AwaitRemediation()

	snap := cp.Snapshot()
	if snap.Remediations != 1 || snap.Migrations != 0 {
		t.Fatalf("remediations=%d migrations=%d, want 1/0", snap.Remediations, snap.Migrations)
	}
	if h := snap.Hosts[0]; h.State != HostHealthy || h.Incarnation != 1 {
		t.Fatalf("host 0 after budget wedge: %v inc %d, want healthy inc 1", h.State, h.Incarnation)
	}
	var fallback string
	for _, ev := range cp.Events() {
		if ev.Host == 0 && ev.Kind == "ckpt-failed" {
			fallback = ev.Detail
		}
	}
	if fallback == "" {
		t.Fatalf("no ckpt-failed event; host 0 events: %v", hostEventKinds(cp, 0))
	}
	if !strings.Contains(fallback, ckpt.ErrBudget.Error()) {
		t.Fatalf("fallback event %q does not cite the budget error", fallback)
	}
	// The replaced fleet still serves: the corpus answer survives on the
	// cold replacement.
	fut, err := cp.Submit("t", serve.Job{Kind: serve.JobSearch, Path: "/wedge", Word: "corpus"})
	if err != nil {
		t.Fatalf("post-remediation submit: %v", err)
	}
	if res := fut.Wait(); res.Err != nil || res.Count != 1 {
		t.Fatalf("post-remediation job: count=%d err=%v, want 1/nil", res.Count, res.Err)
	}
	cp.Drain()
}
