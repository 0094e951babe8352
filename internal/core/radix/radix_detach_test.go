package radix

import (
	"sync"
	"testing"
)

// TestClaimDetachRace tortures the store-then-verify protocol between a
// slot claimant and RemoveLeaf (the Dekker construction documented on
// RemoveLeaf). The hazard it guards against: a claimant wins TryBeginInit
// on a leaf that detaches concurrently, attaches a frame, and the frame is
// stranded on an unreachable node — invisible to eviction and to a restart
// sweep. The protocol guarantees at least one side observes the other:
// either the remover sees the claimed slot and refuses, or the claimant
// sees the detach flag and aborts. Both succeeding is the leak.
func TestClaimDetachRace(t *testing.T) {
	const rounds = 5000
	for r := 0; r < rounds; r++ {
		tr := NewTree()
		fp, leaf := tr.Insert(uint64(r) % 256)

		var wg sync.WaitGroup
		var claimed bool
		wg.Add(2)
		go func() { // claimant: core's claim sequence (getPage, spanFetch)
			defer wg.Done()
			if !fp.TryBeginInit() {
				return
			}
			if leaf.Detached() {
				fp.AbortInit()
				return
			}
			fp.FinishInit(1)
			fp.Unref()
			claimed = true
		}()
		go func() { // remover: eviction's empty-leaf reclamation
			defer wg.Done()
			tr.RemoveLeaf(leaf)
		}()
		wg.Wait()

		if leaf.Detached() && claimed {
			t.Fatalf("round %d: frame stranded — slot initialized on a detached leaf", r)
		}
		if !leaf.Detached() && !claimed && !fp.Empty() {
			t.Fatalf("round %d: aborted claim left slot non-empty", r)
		}
	}
}

// TestRemoveLeafRollback: a refused removal must fully roll the detach
// flag back so later claims and removals behave normally.
func TestRemoveLeafRollback(t *testing.T) {
	tr := NewTree()
	fp, leaf := tr.Insert(64)
	fp.TryBeginInit()
	fp.FinishInit(2)
	fp.Unref()

	tr.RemoveLeaf(leaf)
	if leaf.Detached() {
		t.Fatalf("removal of an occupied leaf succeeded")
	}
	// The rolled-back leaf keeps serving claims.
	fp2, leaf2 := tr.Insert(65)
	if leaf2 != leaf {
		t.Fatalf("rollback replaced the leaf")
	}
	if !fp2.TryBeginInit() {
		t.Fatalf("rollback left the leaf unusable")
	}
	fp2.AbortInit()
	// Drain and retry: now it must detach.
	if !fp.TryEvict() {
		t.Fatalf("evict after rollback")
	}
	fp.FinishEvict()
	tr.RemoveLeaf(leaf)
	if !leaf.Detached() {
		t.Fatalf("drained leaf still refuses removal")
	}
}
