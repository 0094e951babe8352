package radix

import (
	"slices"
	"sync"
	"testing"
)

// FuzzRadixTree interprets the fuzz input as an op program against one tree
// and checks every observation against a reference model of the slot state
// machine. It covers the full lifecycle — Insert, Lookup (lock-free and
// locked), init/abort, ref/unref, evict and cancel, leaf removal (including the
// refuse-when-occupied rule RemoveLeaf enforces against frame stranding, and
// the recycling of a removed leaf), dirty hints set and cleared, and racing
// initializers — then sweeps the final tree for invariant violations and
// compares the dirty walk with the walk over every Ready slot.
//
// Byte program: each step consumes 3 bytes [op, idxHi, idxLo]; the index
// space is folded into 4 leaves' worth of slots so collisions, re-inserts
// and leaf-level ops happen constantly.
func FuzzRadixTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 1, 4, 0, 1, 5, 0, 1, 6, 0, 64})
	f.Add([]byte{2, 0, 0, 6, 0, 0, 5, 0, 0, 6, 0, 0, 2, 0, 0})
	f.Add([]byte{7, 0, 7, 7, 0, 7, 5, 0, 7, 3, 1, 0, 6, 1, 0, 1, 0, 7})
	f.Add([]byte{2, 0, 3, 13, 0, 3, 4, 0, 3, 6, 0, 3, 5, 0, 3, 6, 0, 3}) // evict, cancel, evict again
	f.Add([]byte{2, 0, 5, 28, 0, 5, 2, 0, 9, 28, 0, 9, 12, 0, 9})        // mark two pages, clear one
	// A marked page evicted, its leaf removed and recycled, the slot reused.
	f.Add([]byte{2, 0, 5, 28, 0, 5, 5, 0, 5, 6, 0, 5, 2, 0, 5})
	// One full leaf drained and removed.
	full := []byte{}
	for i := byte(0); i < fanout; i++ {
		full = append(full, 2, 0, i) // init+finish every slot of leaf 0
	}
	for i := byte(0); i < fanout; i++ {
		full = append(full, 5, 0, i) // evict them all
	}
	full = append(full, 6, 0, 0, 0, 0, 0) // remove leaf, re-insert
	f.Add(full)

	f.Fuzz(func(t *testing.T, in []byte) {
		const (
			stEmpty = iota
			stReady
		)
		type slotModel struct {
			fp    *FPage
			state int
			dirty bool // its bit of the leaf's dirty mask
		}
		tr := NewTree()
		model := map[uint64]*slotModel{}

		// track materializes the slot for idx via Insert and checks that
		// re-insertion is stable.
		track := func(idx uint64) *slotModel {
			fp, leaf := tr.Insert(idx)
			if fp == nil || leaf == nil {
				t.Fatalf("Insert(%d) returned nil", idx)
			}
			if leaf.Base() != idx-idx%fanout {
				t.Fatalf("Insert(%d): leaf base %d", idx, leaf.Base())
			}
			if leaf.Detached() {
				t.Fatalf("Insert(%d) returned a detached leaf", idx)
			}
			m := model[idx]
			if m == nil {
				m = &slotModel{fp: fp, state: stEmpty}
				if fp.Ready() {
					t.Fatalf("Insert(%d): fresh slot already ready", idx)
				}
				model[idx] = m
			} else if m.fp != fp {
				t.Fatalf("Insert(%d) returned a different slot for a live leaf", idx)
			}
			return m
		}

		for i := 0; i+2 < len(in); i += 3 {
			op := in[i] % 8
			idx := (uint64(in[i+1])<<8 | uint64(in[i+2])) % (4 * fanout)
			switch op {
			case 0: // insert
				track(idx)

			case 1: // lookup, both variants, against the model
				fp := tr.Lookup(idx)
				flk := tr.LookupLocked(idx)
				if m := model[idx]; m != nil {
					if fp != m.fp || flk != m.fp {
						t.Fatalf("Lookup(%d) disagrees with model", idx)
					}
				} else if fp != nil && fp.Ready() {
					t.Fatalf("Lookup(%d) found a ready slot never initialized", idx)
				}

			case 2: // claim + finish init (initializer's ref dropped at once)
				m := track(idx)
				ok := m.fp.TryBeginInit()
				if ok != (m.state == stEmpty) {
					t.Fatalf("TryBeginInit(%d) = %v in state %d", idx, ok, m.state)
				}
				if ok {
					m.fp.FinishInit(int32(idx))
					m.fp.Unref()
					if m.fp.Frame() != int32(idx) || !m.fp.Ready() {
						t.Fatalf("FinishInit(%d): frame=%d ready=%v", idx, m.fp.Frame(), m.fp.Ready())
					}
					m.state = stReady
				}

			case 3: // claim + abort: slot must come back empty
				m := track(idx)
				if m.fp.TryBeginInit() {
					if m.state != stEmpty {
						t.Fatalf("TryBeginInit(%d) succeeded in state %d", idx, m.state)
					}
					m.fp.AbortInit()
					if !m.fp.Empty() || m.fp.Frame() != -1 {
						t.Fatalf("AbortInit(%d) left state=%v frame=%d", idx, m.fp.Empty(), m.fp.Frame())
					}
				}

			case 4: // ref/unref round trip; bit 3 of the op byte also sets the dirty hint to bit 4
				m := track(idx)
				ok := m.fp.TryRef()
				if ok != (m.state == stReady) {
					t.Fatalf("TryRef(%d) = %v in state %d", idx, ok, m.state)
				}
				if in[i]&8 != 0 {
					m.dirty = in[i]&16 != 0
					tr.HintDirty(idx, m.dirty)
				}
				if ok {
					if m.fp.Refs() < 1 {
						t.Fatalf("TryRef(%d): refs=%d", idx, m.fp.Refs())
					}
					m.fp.Unref()
				}

			case 5: // evict; bit 3 of the op byte makes the evictor change its mind
				m := track(idx)
				ok := m.fp.TryEvict()
				if ok != (m.state == stReady) {
					t.Fatalf("TryEvict(%d) = %v in state %d", idx, ok, m.state)
				}
				if ok && in[i]&8 != 0 {
					m.fp.CancelEvict()
					if !m.fp.Ready() || m.fp.Frame() != int32(idx) || m.fp.Refs() != 0 {
						t.Fatalf("CancelEvict(%d): ready=%v frame=%d refs=%d", idx, m.fp.Ready(), m.fp.Frame(), m.fp.Refs())
					}
				} else if ok {
					m.fp.FinishEvict()
					if !m.fp.Empty() || m.fp.Frame() != -1 {
						t.Fatalf("FinishEvict(%d) left a non-empty slot", idx)
					}
					m.state = stEmpty
				}

			case 6: // remove leaf: detaches iff every slot is empty
				_, leaf := tr.LookupLeaf(idx)
				if leaf == nil {
					continue
				}
				base := leaf.Base()
				occupied := false
				for s := uint64(0); s < fanout; s++ {
					if m := model[base+s]; m != nil && m.state != stEmpty {
						occupied = true
						break
					}
				}
				before := tr.Leaves()
				wasDetached := leaf.Detached()
				tr.RemoveLeaf(leaf)
				switch {
				case wasDetached:
					if tr.Leaves() != before {
						t.Fatalf("re-removing a detached leaf changed the leaf count")
					}
				case occupied:
					if leaf.Detached() {
						t.Fatalf("RemoveLeaf detached leaf %d with an occupied slot (frame strand)", base)
					}
					if tr.Leaves() != before {
						t.Fatalf("refused removal changed the leaf count")
					}
				default:
					if !leaf.Detached() {
						t.Fatalf("RemoveLeaf left an all-empty leaf %d attached", base)
					}
					if tr.Leaves() != before-1 {
						t.Fatalf("leaf count %d after removal, want %d", tr.Leaves(), before-1)
					}
					// Dead slots must not be resurrected: forget them so a
					// later Insert materializes (and we track) a fresh leaf,
					// which the grace period just ended lets be this one.
					for s := uint64(0); s < fanout; s++ {
						delete(model, base+s)
					}
					tr.EpochDomain().Quiesce()
				}

			case 7: // racing initializers: exactly one side may win a claim
				m := track(idx)
				var wg sync.WaitGroup
				wins := make([]bool, 2)
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						wins[g] = m.fp.TryBeginInit()
					}(g)
				}
				wg.Wait()
				won := 0
				for _, w := range wins {
					if w {
						won++
					}
				}
				switch {
				case m.state != stEmpty && won != 0:
					t.Fatalf("claim race on non-empty slot %d: %d winners", idx, won)
				case m.state == stEmpty && won != 1:
					t.Fatalf("claim race on empty slot %d: %d winners, want 1", idx, won)
				}
				if won == 1 {
					m.fp.FinishInit(int32(idx))
					m.fp.Unref()
					m.state = stReady
				}
			}
		}

		// Final sweep: the tree's ready set must match the model exactly.
		wantReady := 0
		for idx, m := range model {
			if tr.Lookup(idx) != m.fp {
				t.Fatalf("final Lookup(%d) disagrees with model", idx)
			}
			if m.state == stReady {
				wantReady++
				if !m.fp.Ready() {
					t.Fatalf("model-ready slot %d not ready", idx)
				}
			}
		}
		gotReady := 0
		var wantDirty, gotDirty []uint64
		tr.ForEachReadyPage(func(idx uint64, p *FPage) bool {
			gotReady++
			m := model[idx]
			if m == nil || m.fp != p || m.state != stReady {
				t.Fatalf("ForEachReadyPage visited untracked slot %d", idx)
			}
			if m.dirty {
				wantDirty = append(wantDirty, idx)
			}
			return true
		})
		if gotReady != wantReady {
			t.Fatalf("ready sweep saw %d pages, model has %d", gotReady, wantReady)
		}
		tr.ForEachDirtyPage(func(idx uint64, p *FPage) bool {
			if m := model[idx]; m == nil || m.fp != p {
				t.Fatalf("ForEachDirtyPage visited untracked slot %d", idx)
			}
			gotDirty = append(gotDirty, idx)
			return true
		})
		if !slices.Equal(gotDirty, wantDirty) {
			t.Fatalf("dirty sweep visited %v, the ready sweep's marked pages are %v", gotDirty, wantDirty)
		}
	})
}
