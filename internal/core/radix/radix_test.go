package radix

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	tr := NewTree()
	indices := []uint64{0, 1, 63, 64, 65, 4095, 4096, 1 << 18, 1 << 30}
	slots := make(map[uint64]*FPage)
	for _, idx := range indices {
		fp, leaf := tr.Insert(idx)
		if fp == nil || leaf == nil {
			t.Fatalf("insert %d returned nil", idx)
		}
		slots[idx] = fp
	}
	for _, idx := range indices {
		if got := tr.Lookup(idx); got != slots[idx] {
			t.Fatalf("lookup %d returned a different slot", idx)
		}
		if got := tr.LookupLocked(idx); got != slots[idx] {
			t.Fatalf("locked lookup %d returned a different slot", idx)
		}
	}
	// Absent pages in unmaterialized subtrees.
	if got := tr.Lookup(1 << 40); got != nil {
		t.Fatalf("lookup of absent index found %v", got)
	}
}

func TestInsertIdempotent(t *testing.T) {
	tr := NewTree()
	a, _ := tr.Insert(1000)
	b, _ := tr.Insert(1000)
	if a != b {
		t.Fatalf("re-insert must return the same slot")
	}
}

func TestLookupEquivalentToMap(t *testing.T) {
	// Property: after arbitrary inserts, Lookup agrees with a reference
	// map for both present and absent indices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		ref := make(map[uint64]*FPage)
		for i := 0; i < 300; i++ {
			idx := uint64(rng.Int63n(1 << 20))
			fp, _ := tr.Insert(idx)
			if prev, ok := ref[idx]; ok && prev != fp {
				return false
			}
			ref[idx] = fp
		}
		for idx, want := range ref {
			if tr.Lookup(idx) != want {
				return false
			}
		}
		for i := 0; i < 100; i++ {
			idx := uint64(rng.Int63n(1<<20)) + (1 << 21) // disjoint range
			if tr.Lookup(idx) != nil {
				// Slots can exist within a materialized leaf even if
				// never inserted; they must at least be empty.
				if tr.Lookup(idx).Ready() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeIDsUnique(t *testing.T) {
	a, b := NewTree(), NewTree()
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatalf("tree ids must be unique and non-zero: %d %d", a.ID(), b.ID())
	}
}

func TestFPageStateMachine(t *testing.T) {
	var p FPage
	p.frame.Store(-1)

	if p.TryRef() {
		t.Fatalf("ref on empty slot")
	}
	if !p.TryBeginInit() {
		t.Fatalf("claim empty slot")
	}
	if p.TryBeginInit() {
		t.Fatalf("double claim")
	}
	if p.TryRef() {
		t.Fatalf("ref during init")
	}
	p.FinishInit(7)
	if p.Frame() != 7 || !p.Ready() {
		t.Fatalf("finish init state")
	}
	if p.Refs() != 1 {
		t.Fatalf("initializer should hold one ref")
	}
	// Referenced pages cannot be evicted.
	if p.TryEvict() {
		t.Fatalf("evicted a referenced page")
	}
	p.Unref()
	if !p.TryRef() {
		t.Fatalf("ref on ready slot")
	}
	if p.TryEvict() {
		t.Fatalf("evicted while referenced")
	}
	p.Unref()
	if !p.TryEvict() {
		t.Fatalf("evict unreferenced ready slot")
	}
	if p.TryRef() {
		t.Fatalf("ref during eviction")
	}
	p.FinishEvict()
	if p.Ready() || p.Frame() != -1 {
		t.Fatalf("evicted slot not empty")
	}

	// Abort path.
	p.TryBeginInit()
	p.AbortInit()
	if p.Ready() || p.Frame() != -1 {
		t.Fatalf("aborted slot not empty")
	}
}

// TestFinishInitKeepsRacingRef replays the interleaving behind the
// rand_evict "stale or mixed page" reports: a TryRef bumps the count, the
// initializer (or an evictor putting a page back) publishes Ready, and only
// then does the TryRef look at the state — and succeed. Both now hold the
// page, so the count must say two; when FinishInit overwrote it with one,
// the first Unref made a page that was still being read evictable.
func TestFinishInitKeepsRacingRef(t *testing.T) {
	var p FPage
	p.frame.Store(-1)
	p.TryBeginInit()
	p.refs.Add(1) // first half of a racing TryRef
	p.FinishInit(3)
	if p.state.Load() != slotReady { // second half: it sees Ready and keeps its ref
		t.Fatalf("slot not ready after FinishInit")
	}
	p.Unref() // the initializer is done with the page
	if p.TryEvict() {
		t.Fatalf("evicted a page the racing TryRef still holds")
	}
}

// TestRefEvictExclusion tortures the one rule everything else leans on: a
// held reference and a won eviction never coexist. Each goroutine alternates
// between the two roles, retries until it wins (holding nothing meanwhile)
// and parks while it holds the page, so the other role runs against a held
// page constantly. The two sides watch each other through
// counters of their own, because the slot's fields flicker under attempts
// that are about to fail: a losing TryRef bumps Refs() for an instant, a
// losing TryEvict passes through Evicting.
func TestRefEvictExclusion(t *testing.T) {
	var p FPage
	p.frame.Store(-1)
	p.TryBeginInit()
	p.FinishInit(1)
	p.Unref()

	var holders, evictors, refWins, evictWins, violations atomic.Int32
	// during parks inside a won claim and counts the other side's winners
	// seen on either edge of the park.
	during := func(mine, theirs *atomic.Int32) {
		mine.Add(1)
		before := theirs.Load()
		runtime.Gosched()
		violations.Add(before + theirs.Load())
		mine.Add(-1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if (g+i)%2 == 0 {
					for !p.TryRef() {
						runtime.Gosched()
					}
					refWins.Add(1)
					during(&holders, &evictors)
					p.Unref()
				} else {
					for !p.TryEvict() {
						runtime.Gosched()
					}
					evictWins.Add(1)
					during(&evictors, &holders)
					p.CancelEvict()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d exclusion violations", n)
	}
	// Vacuousness guard: a run in which one side never won checked nothing.
	if refWins.Load() == 0 || evictWins.Load() == 0 {
		t.Fatalf("arms ran %d (ref) and %d (evict) times; both must run", refWins.Load(), evictWins.Load())
	}
	t.Logf("ref arm won %d times, evict arm %d", refWins.Load(), evictWins.Load())
}

// TestFPageTransitionTable drives every transition from every state: the
// legal move lands in its target state with the expected count and frame, a
// Try* form from the wrong state returns false and changes nothing, and a
// checked transition from the wrong state panics.
func TestFPageTransitionTable(t *testing.T) {
	const attached, fresh, same = 7, 9, -2
	states := []struct {
		name  string
		state int32
		refs  int32
		frame int32
	}{
		{"Empty", slotEmpty, 0, -1},
		{"Init", slotInit, 0, -1},
		{"Ready", slotReady, 0, attached},
		{"Ready+ref", slotReady, 1, attached},
		{"Evicting", slotEvicting, 0, attached},
	}
	always := func(f func(*FPage)) func(*FPage) bool {
		return func(p *FPage) bool { f(p); return true }
	}
	ops := []struct {
		name     string
		run      func(*FPage) bool
		from, to int32
		checked  bool  // wrong state panics, rather than returning false
		refs     int32 // added to the count by the legal move
		frame    int32 // attached after the legal move, or same
	}{
		{"TryBeginInit", (*FPage).TryBeginInit, slotEmpty, slotInit, false, 0, same},
		{"FinishInit", always(func(p *FPage) { p.FinishInit(fresh) }), slotInit, slotReady, true, 1, fresh},
		{"AbortInit", always((*FPage).AbortInit), slotInit, slotEmpty, true, 0, -1},
		{"TryRef", (*FPage).TryRef, slotReady, slotReady, false, 1, same},
		{"TryEvict", (*FPage).TryEvict, slotReady, slotEvicting, false, 0, same},
		{"CancelEvict", always((*FPage).CancelEvict), slotEvicting, slotReady, true, 0, same},
		{"FinishEvict", always((*FPage).FinishEvict), slotEvicting, slotEmpty, true, 0, -1},
	}
	for _, st := range states {
		for _, op := range ops {
			t.Run(st.name+"/"+op.name, func(t *testing.T) {
				var p FPage
				p.state.Store(st.state)
				p.refs.Store(st.refs)
				p.frame.Store(st.frame)

				// A reference is the one thing besides the state that makes
				// a move illegal: it turns TryEvict away.
				legal := st.state == op.from && !(op.name == "TryEvict" && st.refs > 0)
				var ok, panicked bool
				func() {
					defer func() { panicked = recover() != nil }()
					ok = op.run(&p)
				}()
				if panicked != (op.checked && !legal) {
					t.Fatalf("panicked = %v", panicked)
				}
				if panicked {
					return // the slot is wreckage; the run is over
				}
				if ok != legal {
					t.Fatalf("returned %v, want %v", ok, legal)
				}
				want := st
				if legal {
					want.state, want.refs = op.to, st.refs+op.refs
					if op.frame != same {
						want.frame = op.frame
					}
				}
				if got := p.state.Load(); got != want.state {
					t.Errorf("state = %d, want %d", got, want.state)
				}
				if p.Refs() != want.refs || p.Frame() != want.frame {
					t.Errorf("refs = %d frame = %d, want %d and %d", p.Refs(), p.Frame(), want.refs, want.frame)
				}
			})
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	tr := NewTree()
	// Insert across three leaves in order.
	tr.Insert(0)         // leaf A (newest last in FIFO tail order)
	tr.Insert(100)       // leaf B
	tr.Insert(100 * 100) // leaf C
	leaves := tr.OldestLeaves(10)
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	if leaves[0].Base() != 0 {
		t.Fatalf("oldest leaf should cover page 0, got base %d", leaves[0].Base())
	}
	if tr.Leaves() != 3 {
		t.Fatalf("leaf count %d", tr.Leaves())
	}
	// Bounded traversal.
	if got := tr.OldestLeaves(2); len(got) != 2 {
		t.Fatalf("bounded traversal returned %d", len(got))
	}
}

func TestRemoveLeaf(t *testing.T) {
	tr := NewTree()
	fp, leaf := tr.Insert(4096)
	fp.TryBeginInit()
	fp.FinishInit(3)
	fp.Unref()

	// A leaf with a non-Empty slot must NOT detach: its slot still owns
	// frame 3, which would be stranded on an unreachable node.
	tr.RemoveLeaf(leaf)
	if leaf.Detached() {
		t.Fatalf("leaf with a Ready slot must not detach")
	}
	if tr.Leaves() != 1 {
		t.Fatalf("leaf count after refused removal: %d", tr.Leaves())
	}

	// Evict the page; now the leaf is fully empty and removable.
	if !fp.TryEvict() {
		t.Fatalf("TryEvict failed on an unreferenced Ready slot")
	}
	fp.FinishEvict()
	tr.RemoveLeaf(leaf)
	if !leaf.Detached() {
		t.Fatalf("leaf not detached")
	}
	if tr.Leaves() != 0 {
		t.Fatalf("leaf count after removal: %d", tr.Leaves())
	}
	// A stale reader that reaches the detached leaf sees the slot, but
	// identifier validation (pframe-level) rejects it; the tree itself
	// no longer returns it for fresh lookups once re-inserted elsewhere.
	fp2, leaf2 := tr.Insert(4096)
	if leaf2 == leaf {
		t.Fatalf("re-insert must materialize a fresh leaf")
	}
	if fp2 == fp {
		t.Fatalf("re-insert must produce a fresh slot")
	}
	// Removing twice is harmless.
	tr.RemoveLeaf(leaf)
}

func TestStatsCounting(t *testing.T) {
	tr := NewTree()
	tr.Insert(5)
	tr.Lookup(5)
	tr.Lookup(5)
	tr.LookupLocked(5)
	tr.CountRetry()
	lf, lk := tr.Stats()
	if lf != 2 || lk != 2 {
		t.Fatalf("stats: lockfree=%d locked=%d, want 2/2", lf, lk)
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	tr := NewTree()
	const n = 2000
	var writers, readers sync.WaitGroup
	// Writers insert a shared key space while readers traverse lock-free.
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < n; i++ {
				tr.Insert(uint64(rng.Int63n(1 << 16)))
			}
		}(g)
	}
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
					tr.Lookup(uint64(rng.Int63n(1 << 16)))
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Every inserted index must now be reachable.
	for g := 0; g < 4; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < n; i++ {
			idx := uint64(rng.Int63n(1 << 16))
			if tr.Lookup(idx) == nil {
				t.Fatalf("inserted index %d not found", idx)
			}
		}
	}
}

func TestForEachReadyPage(t *testing.T) {
	tr := NewTree()
	for i := uint64(0); i < 10; i++ {
		fp, _ := tr.Insert(i * 64) // one per leaf
		fp.TryBeginInit()
		fp.FinishInit(int32(i))
		fp.Unref()
	}
	count := 0
	tr.ForEachReadyPage(func(idx uint64, p *FPage) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("visited %d ready pages, want 10", count)
	}
	// Early termination.
	count = 0
	tr.ForEachReadyPage(func(idx uint64, p *FPage) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestForEachDirtyPage: the dirty walk visits exactly the marked Ready slots,
// in the order of the walk over every Ready slot, across leaves; it sees a
// bit set or cleared above it mid-walk; and a leaf recycled from the pool
// starts with no bit set.
func TestForEachDirtyPage(t *testing.T) {
	tr := NewTree()
	ready := func(idx uint64) *FPage {
		fp, _ := tr.Insert(idx)
		if !fp.TryBeginInit() {
			t.Fatalf("slot %d already claimed", idx)
		}
		fp.FinishInit(int32(idx))
		fp.Unref()
		return fp
	}
	for _, idx := range []uint64{130, 3, 64, 5, 0, 191, 70, 63} {
		ready(idx)
	}
	claimed, _ := tr.Insert(7) // Init: marked, but not Ready
	claimed.TryBeginInit()
	tr.Insert(8) // Empty
	marked := map[uint64]bool{}
	for _, idx := range []uint64{63, 3, 130, 191, 0, 7, 8, 70} {
		tr.HintDirty(idx, true)
		marked[idx] = true
	}
	tr.HintDirty(0, false)
	tr.HintDirty(0, false) // clearing a clear bit is a no-op
	delete(marked, 0)

	var want, got []uint64
	tr.ForEachReadyPage(func(idx uint64, p *FPage) bool {
		if marked[idx] {
			want = append(want, idx)
		}
		return true
	})
	tr.ForEachDirtyPage(func(idx uint64, p *FPage) bool {
		if p != tr.Lookup(idx) || !p.Ready() {
			t.Fatalf("dirty walk passed slot %d not its own or not Ready", idx)
		}
		got = append(got, idx)
		return true
	})
	if !slices.Equal(got, want) || len(want) != 5 {
		t.Fatalf("dirty walk visited %v, want %v (5 marked Ready slots)", got, want)
	}

	// Mid-walk: the visit of 3 clears a later bit of its leaf and sets one
	// between; the walk follows the mask as it is then.
	got = got[:0]
	tr.ForEachDirtyPage(func(idx uint64, p *FPage) bool {
		if idx == 3 {
			tr.HintDirty(63, false)
			tr.HintDirty(5, true)
		}
		got = append(got, idx)
		return true
	})
	if w := []uint64{130, 191, 3, 5, 70}; !slices.Equal(got, w) {
		t.Fatalf("walk with bits moving visited %v, want %v", got, w)
	}
	got = got[:0]
	tr.ForEachDirtyPage(func(idx uint64, p *FPage) bool {
		got = append(got, idx)
		return len(got) < 2
	})
	if w := []uint64{130, 191}; !slices.Equal(got, w) {
		t.Fatalf("walk stopped at the second visit visited %v, want %v", got, w)
	}

	// Drain leaf 2 (base 128), marked at 130 and 191, and recycle it as a
	// fresh leaf: none of its bits survive.
	for _, idx := range []uint64{130, 191} {
		fp := tr.Lookup(idx)
		if !fp.TryEvict() {
			t.Fatalf("evict %d", idx)
		}
		fp.FinishEvict()
	}
	_, leaf := tr.LookupLeaf(130)
	tr.RemoveLeaf(leaf)
	if !leaf.Detached() || !tr.EpochDomain().Quiesce() {
		t.Fatal("leaf 2 not detached and freed")
	}
	_, fresh := tr.Insert(1 << 12)
	if fresh != leaf || tr.Recycles() != 1 {
		t.Fatalf("Insert did not recycle the drained leaf (recycles %d)", tr.Recycles())
	}
	if m := fresh.DirtyHint(); m != 0 {
		t.Fatalf("recycled leaf starts with dirty mask %#x", m)
	}
}

func BenchmarkLookupLockFree(b *testing.B) {
	tr := NewTree()
	for i := uint64(0); i < 4096; i++ {
		tr.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(uint64(i) & 4095)
	}
}

func BenchmarkLookupLocked(b *testing.B) {
	tr := NewTree()
	for i := uint64(0); i < 4096; i++ {
		tr.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LookupLocked(uint64(i) & 4095)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := NewTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i))
	}
}

func BenchmarkTryRefUnref(b *testing.B) {
	var p FPage
	p.frame.Store(-1)
	p.TryBeginInit()
	p.FinishInit(1)
	p.Unref()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.TryRef() {
			p.Unref()
		}
	}
}
