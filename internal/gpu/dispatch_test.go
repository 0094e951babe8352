package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufs/internal/simtime"
)

// turnRef is a sequential reference of the turn rule: the idle slot lowest in
// (availability, index) takes the next block once no busy slot's last-known
// availability is below its own. It runs one event at a time, a pull when the
// rule allows one and otherwise the end of the busy slot lowest in
// availability. With every block's duration positive, ends commute with
// pulls, so this is the placement whatever order the host runs them in.
type turnRef struct {
	at       []simtime.Time
	assigned []int64
	rng      *rand.Rand // the device's dispatch order
}

func newTurnRef(slots int, seed int64) *turnRef {
	return &turnRef{
		at:       make([]simtime.Time, slots),
		assigned: make([]int64, slots),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// launch places a kernel whose block i runs durs[i] and becomes resident at
// launchAt, and returns each block's start, its slot and the kernel's end.
func (r *turnRef) launch(launchAt simtime.Time, durs []simtime.Duration) (start []simtime.Time, slot []int, kend simtime.Time) {
	start, slot = make([]simtime.Time, len(durs)), make([]int, len(durs))
	busy := make([]bool, len(r.at))
	ends := make([]simtime.Time, len(r.at))
	kend = launchAt
	end := func(j int) {
		busy[j] = false
		r.at[j] = max(r.at[j], ends[j])
	}
	for _, idx := range r.rng.Perm(len(durs)) {
		for {
			first, lowBusy := -1, -1
			for j := range r.at {
				if busy[j] {
					if lowBusy < 0 || r.at[j] < r.at[lowBusy] {
						lowBusy = j
					}
				} else if first < 0 || r.at[j] < r.at[first] {
					first = j
				}
			}
			if first >= 0 && (lowBusy < 0 || r.at[lowBusy] >= r.at[first]) {
				start[idx], slot[idx] = max(launchAt, r.at[first]), first
				ends[first] = start[idx].Add(durs[idx])
				kend = max(kend, ends[first])
				busy[first] = true
				r.assigned[first]++
				break
			}
			end(lowBusy)
		}
	}
	for j := range busy {
		if busy[j] {
			end(j)
		}
	}
	return start, slot, kend
}

// TestDispatchFollowsTheTurnRule checks every block's start and MP, each
// slot's block count and each kernel's end against turnRef, over random
// durations, launches of fewer, as many and more blocks than slots, and
// launches issued before the previous one ends, so availabilities carry
// over. A block yields while it runs, so other workers run meanwhile. On
// one slot per MP a block charges its MP with Compute; on the shipped two
// slots per MP it advances its clock, because two blocks that share an MP
// book it in the order the host runs them.
func TestDispatchFollowsTheTurnRule(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mps, perMP   int
		blocks       []int
		bookOnTheMPs bool
	}{
		{"one slot per MP", 8, 1, []int{5, 8, 20, 3, 37}, true},
		{"shipped geometry", 14, 2, []int{16, 28, 1, 60, 16, 9}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := Config{MPs: tc.mps, BlocksPerMP: tc.perMP, MemBytes: 1 << 20,
					Flops: float64(tc.mps) * 1e9, LaunchOverhead: overhead, SchedSeed: seed}
				d := New(cfg)
				ref := newTurnRef(len(d.slots), seed)
				rng := rand.New(rand.NewSource(seed))
				issue := simtime.Time(0)
				for k, blocks := range tc.blocks {
					flops := make([]float64, blocks)
					durs := make([]simtime.Duration, blocks)
					for i := range flops {
						flops[i] = float64(1_000 + rng.Intn(200_000))
						// Block.Compute's arithmetic at cfg.Flops / MPs per MP.
						durs[i] = simtime.Duration(flops[i] / (cfg.Flops / float64(cfg.MPs)) * float64(simtime.Second))
					}
					got := make([]ran, blocks)
					var mu sync.Mutex
					end, err := d.Launch(issue, blocks, 32, func(b *Block) error {
						start := b.Clock.Now()
						runtime.Gosched()
						if tc.bookOnTheMPs {
							b.Compute(flops[b.Idx])
						} else {
							b.Clock.Advance(durs[b.Idx])
						}
						mu.Lock()
						got[b.Idx] = ran{b.Idx, b.mp, start, b.Clock.Now()}
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					start, slot, kend := ref.launch(issue.Add(overhead), durs)
					for i, g := range got {
						if mp := d.mps[slot[i]%tc.mps]; g.start != start[i] || g.mp != mp {
							t.Fatalf("seed %d kernel %d block %d started at %d on %s, want %d on %s (slot %d)",
								seed, k, i, g.start, g.mp.Name(), start[i], mp.Name(), slot[i])
						}
						if g.end != start[i].Add(durs[i]) {
							t.Fatalf("seed %d kernel %d block %d ran [%d, %d], want %v long", seed, k, i, g.start, g.end, durs[i])
						}
					}
					if fmt.Sprint(d.SlotAssignments()) != fmt.Sprint(ref.assigned) {
						t.Fatalf("seed %d kernel %d: slots ran %v blocks, want %v", seed, k, d.SlotAssignments(), ref.assigned)
					}
					if end != kend {
						t.Fatalf("seed %d kernel %d ended at %d, want %d", seed, k, end, kend)
					}
					// The next kernel is issued halfway through this one.
					issue = issue.Add(end.Sub(issue) / 2)
				}
			}
		})
	}
}

// TestLaunchStartsOnlyUsableWorkers: a launch runs a worker on a slot only if
// the slot can be handed one of its blocks, so a one-block launch on the
// shipped 28 slots runs one, a 16-block launch at most 16; and a fault while
// workers wait for their turn leaves none of them behind.
func TestLaunchStartsOnlyUsableWorkers(t *testing.T) {
	for _, blocks := range []int{1, 16} {
		d := servingDevice()
		base := runtime.NumGoroutine()
		var mu sync.Mutex
		most := 0
		_, err := d.Launch(0, blocks, 32, func(b *Block) error {
			n := runtime.NumGoroutine() - base
			mu.Lock()
			most = max(most, n)
			mu.Unlock()
			runtime.Gosched()
			b.Compute(1e5)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if most > blocks {
			t.Errorf("a %d-block launch on %d slots ran %d goroutines beside the caller, want at most %d",
				blocks, len(d.slots), most, blocks)
		}
	}

	t.Run("fault", func(t *testing.T) {
		d := testDevice()
		// Spread the slots' availabilities: then the slot that frees first
		// takes a block and every other worker waits until it ends.
		_, err := d.Launch(0, len(d.slots), 32, func(b *Block) error {
			b.Busy(simtime.Duration(b.Idx+1) * us)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		var ran atomic.Int64
		_, err = d.Launch(0, 3*len(d.slots), 32, func(b *Block) error {
			if ran.Add(1) == 1 {
				return errors.New("bad memory access")
			}
			return nil
		})
		if !errors.Is(err, ErrKernelFault) {
			t.Fatalf("want ErrKernelFault, got %v", err)
		}
		if n := ran.Load(); n != 1 {
			t.Fatalf("%d blocks ran; the first faulted and no other could start before it ended", n)
		}
		// A worker is counted done just before its goroutine exits.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines left after a faulted launch, %d before it", n, base)
		}
	})
}
