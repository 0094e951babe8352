package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"gpufs/internal/simtime"
)

func testDevice() *Device {
	return New(Config{
		ID:              0,
		MPs:             4,
		BlocksPerMP:     2,
		MemBytes:        64 << 20,
		MemBandwidth:    100_000 * simtime.MBps,
		Flops:           8e9,
		ScratchpadBytes: 48 << 10,
		LaunchOverhead:  10 * simtime.Microsecond,
	})
}

func TestLaunchGeometry(t *testing.T) {
	d := testDevice()
	if _, err := d.Launch(0, 0, 32, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("zero blocks must fail")
	}
	if _, err := d.Launch(0, 4, 0, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("zero threads must fail")
	}
	if d.MaxResidentBlocks() != 8 {
		t.Fatalf("resident = %d", d.MaxResidentBlocks())
	}
}

func TestAllBlocksRunExactlyOnce(t *testing.T) {
	d := testDevice()
	var mu sync.Mutex
	seen := make(map[int]int)
	end, err := d.Launch(0, 100, 64, func(b *Block) error {
		mu.Lock()
		seen[b.Idx]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("blocks seen: %d", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("block %d ran %d times", idx, n)
		}
	}
	if end < simtime.Time(10*simtime.Microsecond) {
		t.Fatalf("end %v earlier than launch overhead", end)
	}
	if d.BlocksRun() != 100 || d.KernelsRun() != 1 {
		t.Fatalf("counters: %d %d", d.BlocksRun(), d.KernelsRun())
	}
}

func TestComputeMakespanMatchesIdeal(t *testing.T) {
	// Uniform compute across many blocks should use every MP: makespan ≈
	// total flops / device rate.
	d := testDevice()
	const blocks = 64
	const flopsPerBlock = 1e9 / 8
	end, err := d.Launch(0, blocks, 128, func(b *Block) error {
		b.Compute(flopsPerBlock)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ideal := simtime.Duration(blocks * flopsPerBlock / 8e9 * float64(simtime.Second))
	got := simtime.Duration(end)
	if got < ideal || got > ideal+ideal/10+simtime.Millisecond {
		t.Fatalf("makespan %v, ideal %v: scheduling must balance MPs", got, ideal)
	}
}

func TestDispatchBalanced(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 80, 64, func(b *Block) error {
		b.Compute(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range d.SlotAssignments() {
		if n != 10 {
			t.Fatalf("slot %d ran %d blocks; uniform work must balance to 10", i, n)
		}
	}
}

func TestNonDeterministicOrderBySeed(t *testing.T) {
	run := func(seed int64) []int {
		d := New(Config{ID: 0, MPs: 1, BlocksPerMP: 1, MemBytes: 1 << 20, SchedSeed: seed})
		var order []int
		var mu sync.Mutex
		d.Launch(0, 16, 32, func(b *Block) error {
			mu.Lock()
			order = append(order, b.Idx)
			mu.Unlock()
			return nil
		})
		return order
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds should give different dispatch orders")
	}
	// Single slot: order is strictly the dispatch order, a permutation.
	seen := make(map[int]bool)
	for _, idx := range a {
		seen[idx] = true
	}
	if len(seen) != 16 {
		t.Fatalf("not a permutation: %v", a)
	}
}

func TestKernelFaultStickiness(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 8, 32, func(b *Block) error {
		if b.Idx == 3 {
			return fmt.Errorf("bad memory access")
		}
		return nil
	})
	if !errors.Is(err, ErrKernelFault) {
		t.Fatalf("want ErrKernelFault, got %v", err)
	}
	if d.Faulted() == nil {
		t.Fatalf("fault should stick (the paper: GPU failures may require a card restart)")
	}
	if _, err := d.Launch(0, 1, 1, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("launch on faulted device must fail")
	}
	d.ResetFault()
	if _, err := d.Launch(0, 1, 1, func(b *Block) error { return nil }); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestPanicBecomesFault(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 2, 32, func(b *Block) error {
		if b.Idx == 1 {
			panic("assertion failure")
		}
		return nil
	})
	if !errors.Is(err, ErrKernelFault) {
		t.Fatalf("panic should surface as kernel fault: %v", err)
	}
	d.ResetFault()
}

func TestBlockContext(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 1, 100, func(b *Block) error {
		if len(b.Scratch) != 48<<10 {
			return fmt.Errorf("scratchpad %d", len(b.Scratch))
		}
		count := 0
		b.ForEachThread(func(tid int) { count++ })
		if count != 100 {
			return fmt.Errorf("ForEachThread ran %d", count)
		}
		b.SyncThreads()
		b.MemFence()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyAndZeroCharges(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 1, 32, func(b *Block) error {
		src := make([]byte, 64<<10)
		src[2] = 3
		dst := make([]byte, 64<<10)
		before := b.Clock.Now()
		if n := b.CopyBytes(dst, src); n != 64<<10 {
			return fmt.Errorf("copy n=%d", n)
		}
		if dst[2] != 3 {
			return fmt.Errorf("copy payload")
		}
		if b.Clock.Now() <= before {
			return fmt.Errorf("copy should cost time")
		}
		b.ZeroBytes(dst)
		if dst[2] != 0 {
			return fmt.Errorf("zero payload")
		}
		b.TouchBytes(1 << 20)
		b.UseMemory(simtime.Microsecond)
		b.Busy(simtime.Microsecond)
		b.ComputeBytes(1<<20, 1e9)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.MemBandwidthResource().Busy() == 0 {
		t.Fatalf("memory traffic not accounted")
	}
}

func TestSlotAvailabilityPersistsAcrossLaunches(t *testing.T) {
	d := testDevice()
	end1, _ := d.Launch(0, 8, 32, func(b *Block) error {
		b.Compute(1e8)
		return nil
	})
	// A second kernel launched at time 0 still waits for slots to free:
	// the earliest slot frees halfway through the first kernel (two
	// blocks share each MP), so no second-kernel block may start before
	// then.
	var earliest simtime.Time = 1 << 62
	var mu sync.Mutex
	d.Launch(0, 8, 32, func(b *Block) error {
		mu.Lock()
		if b.Clock.Now() < earliest {
			earliest = b.Clock.Now()
		}
		mu.Unlock()
		return nil
	})
	if earliest < end1/2-simtime.Time(simtime.Millisecond) {
		t.Fatalf("second kernel started at %v before any slot freed (first kernel ended %v)", earliest, end1)
	}
	d.ResetTime()
	end3, _ := d.Launch(0, 1, 32, func(b *Block) error { return nil })
	if end3 > simtime.Time(simtime.Millisecond) {
		t.Fatalf("after ResetTime, kernel should start immediately: %v", end3)
	}
}

func TestBlockRandDeterministicPerLaunch(t *testing.T) {
	collect := func() []int64 {
		d := New(Config{ID: 0, MPs: 2, BlocksPerMP: 2, MemBytes: 1 << 20})
		out := make([]int64, 8)
		var mu sync.Mutex
		d.Launch(0, 8, 32, func(b *Block) error {
			v := b.Rand.Int63()
			mu.Lock()
			out[b.Idx] = v
			mu.Unlock()
			return nil
		})
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("block RNG must be deterministic per (launch, block): %d", i)
		}
	}
}

func TestConcurrentLaunchesSerializePerDevice(t *testing.T) {
	// Launches on one device serialize in host time (in virtual time they
	// overlap: overlap_test.go); both kernels must still run all their
	// blocks exactly once.
	d := testDevice()
	var mu sync.Mutex
	counts := map[string]int{}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d.Launch(0, 20, 32, func(b *Block) error {
				mu.Lock()
				counts[fmt.Sprintf("%d/%d", k, b.Idx)]++
				mu.Unlock()
				b.Compute(1e5)
				return nil
			})
		}(k)
	}
	wg.Wait()
	if len(counts) != 40 {
		t.Fatalf("blocks ran: %d, want 40", len(counts))
	}
	for key, n := range counts {
		if n != 1 {
			t.Fatalf("block %s ran %d times", key, n)
		}
	}
	if d.KernelsRun() != 2 {
		t.Fatalf("kernels: %d", d.KernelsRun())
	}
}

// TestSchedulerQualityProperty: for random per-block compute durations,
// the kernel makespan must sit between the trivial lower bounds (critical
// block; total work over all MPs) and the greedy list-scheduling upper
// bound (2x optimal for uniform machines).
func TestSchedulerQualityProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{
			ID: 0, MPs: 4, BlocksPerMP: 2, MemBytes: 1 << 20,
			Flops: 4e9, // 1e9 per MP
		})
		nBlocks := 24 + rng.Intn(40)
		durs := make([]float64, nBlocks) // flops per block
		var total float64
		var longest float64
		for i := range durs {
			durs[i] = float64(rng.Intn(1e8) + 1e6)
			total += durs[i]
			if durs[i] > longest {
				longest = durs[i]
			}
		}
		end, err := d.Launch(0, nBlocks, 32, func(b *Block) error {
			b.Compute(durs[b.Idx])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		makespan := simtime.Duration(end).Seconds()
		perMP := 1e9
		lower := total / (4 * perMP)
		if c := longest / perMP; c > lower {
			lower = c
		}
		upper := 2 * lower * 1.2 // list scheduling bound + model slack
		if makespan < lower*0.99 {
			t.Fatalf("seed %d: makespan %.4fs below lower bound %.4fs", seed, makespan, lower)
		}
		if makespan > upper {
			t.Fatalf("seed %d: makespan %.4fs exceeds list-scheduling bound %.4fs", seed, makespan, upper)
		}
	}
}

// TestBlockRandStreamMatchesEagerSeed pins the lazily seeded Block.Rand to the
// generator it replaced: for a fixed (launch seq, block idx) every kind of
// draw yields what rand.New(rand.NewSource(seed)) yields, on a slot's first
// block and on the ones that find its generator used.
func TestBlockRandStreamMatchesEagerSeed(t *testing.T) {
	d := New(Config{ID: 0, MPs: 1, BlocksPerMP: 2, MemBytes: 1 << 20})
	for seq := int64(0); seq < 3; seq++ {
		_, err := d.Launch(0, 8, 32, func(b *Block) error {
			want := rand.New(rand.NewSource(seq<<20 ^ int64(b.Idx)*0x9e3779b9))
			// An odd-length Read leaves bytes buffered in the Rand, which the
			// slot's next block must not see.
			got3, want3 := make([]byte, 3), make([]byte, 3)
			b.Rand.Read(got3)
			want.Read(want3)
			if string(got3) != string(want3) {
				return fmt.Errorf("seq %d block %d: Read = %x, want %x", seq, b.Idx, got3, want3)
			}
			if g, w := b.Rand.Int63n(1<<40), want.Int63n(1<<40); g != w {
				return fmt.Errorf("seq %d block %d: Int63n = %d, want %d", seq, b.Idx, g, w)
			}
			if g, w := fmt.Sprint(b.Rand.Perm(9)), fmt.Sprint(want.Perm(9)); g != w {
				return fmt.Errorf("seq %d block %d: Perm = %s, want %s", seq, b.Idx, g, w)
			}
			if g, w := b.Rand.Uint64(), want.Uint64(); g != w {
				return fmt.Errorf("seq %d block %d: Uint64 = %d, want %d", seq, b.Idx, g, w)
			}
			if g, w := b.Rand.Float64(), want.Float64(); g != w {
				return fmt.Errorf("seq %d block %d: Float64 = %v, want %v", seq, b.Idx, g, w)
			}
			got3 = got3[:2]
			b.Rand.Read(got3)
			want.Read(want3[:2])
			if string(got3) != string(want3[:2]) {
				return fmt.Errorf("seq %d block %d: second Read = %x, want %x", seq, b.Idx, got3, want3[:2])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScratchZeroedAtBlockStart: a block gets the pad a block before it wrote
// — on its own slot or, through the device's stack, on another — and must
// find it zeroed.
func TestScratchZeroedAtBlockStart(t *testing.T) {
	type use struct {
		pad *byte
		mp  *simtime.Resource
	}
	run := func(t *testing.T, d *Device, launches, blocks int) []use {
		var mu sync.Mutex
		var uses []use
		for launch := 0; launch < launches; launch++ {
			_, err := d.Launch(0, blocks, 32, func(b *Block) error {
				if len(b.Scratch) != 4<<10 {
					return fmt.Errorf("scratchpad %d", len(b.Scratch))
				}
				for i, v := range b.Scratch {
					if v != 0 {
						return fmt.Errorf("launch %d block %d: scratch[%d] = %#x at block start", launch, b.Idx, i, v)
					}
				}
				mu.Lock()
				uses = append(uses, use{&b.Scratch[0], b.mp})
				mu.Unlock()
				b.Compute(1e6)
				for i := range b.Scratch {
					b.Scratch[i] = 0xA5
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return uses
	}

	t.Run("one slot", func(t *testing.T) {
		d := New(Config{ID: 0, MPs: 1, BlocksPerMP: 1, MemBytes: 1 << 20, ScratchpadBytes: 4 << 10})
		uses := run(t, d, 2, 4)
		reused := 0
		for i := 1; i < len(uses); i++ {
			if uses[i].pad == uses[i-1].pad {
				reused++
			}
		}
		if reused != 7 {
			t.Fatalf("one slot ran 8 blocks but was handed the last block's pad %d times, want 7", reused)
		}
	})

	// One-block launches on two slots reserve one pad, and each goes to the
	// slot the previous block left free in virtual time: the one pad
	// crosses slots at every launch.
	t.Run("two slots", func(t *testing.T) {
		d := New(Config{ID: 0, MPs: 2, BlocksPerMP: 1, MemBytes: 1 << 20, Flops: 2e9, ScratchpadBytes: 4 << 10})
		uses := run(t, d, 6, 1)
		crossed := 0
		for i := 1; i < len(uses); i++ {
			if uses[i].pad == uses[i-1].pad && uses[i].mp != uses[i-1].mp {
				crossed++
			}
		}
		if crossed != 5 {
			t.Fatalf("six one-block launches on two slots handed a dirtied pad to the other slot %d times, want 5", crossed)
		}
	})
}

// servingDevice is a fresh device of the shipped geometry (14 MPs of 2
// slots, 48 KiB scratchpads) with little device memory.
func servingDevice() *Device { return servingDeviceWithPads(48 << 10) }

// servingDeviceWithPads is servingDevice with pads of size bytes.
func servingDeviceWithPads(size int64) *Device {
	cfg := testDevice().cfg
	cfg.MPs, cfg.MemBytes, cfg.ScratchpadBytes = 14, 1<<20, size
	return New(cfg)
}

// launchYielding runs launches launches of blocks blocks whose body yields
// the processor halfway, so host interleaving varies with GOMAXPROCS.
func launchYielding(tb testing.TB, d *Device, launches, blocks int) {
	for range launches {
		_, err := d.Launch(0, blocks, 32, func(b *Block) error {
			b.Scratch[0] = 1
			runtime.Gosched()
			b.Compute(1e5)
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// pooledPads empties padPool's pads of size bytes and returns a func that
// counts them: a test keys the pool by a size no other test uses, so what it
// counts is what its own launches reserve and give back.
func pooledPads(size int64) func() int {
	padPool.Lock()
	delete(padPool.free, size)
	padPool.Unlock()
	return func() int {
		padPool.Lock()
		defer padPool.Unlock()
		return len(padPool.free[size])
	}
}

// TestPadStackHoldsWhatLaunchesReserve: a launch reserves the pads its blocks
// can use at once, min(blocks, slots), from the process's pool before its
// workers start and gives them all back when it ends, so a 28-slot device
// that only runs 16-block launches leaves 16 pads in the pool however its
// blocks rotate through the slots, and the count does not depend on how the
// host interleaves them. A fresh device that launches after a warm one gave
// its pads back makes none: every block of its first launch runs on a pad
// the warm device pooled.
func TestPadStackHoldsWhatLaunchesReserve(t *testing.T) {
	const launches, blocks, size = 40, 16, 48<<10 + 1
	pooled := pooledPads(size)
	d := servingDeviceWithPads(size)
	for _, n := range []int{blocks, 1, 40, blocks} {
		want := min(n, d.MaxResidentBlocks())
		before := pooled()
		inLaunch := -1
		_, err := d.Launch(0, n, 32, func(b *Block) error {
			if b.Idx == 0 {
				inLaunch = pooled()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := max(before-want, 0); inLaunch != got {
			t.Errorf("a %d-block launch left %d pads of %d in the pool while it ran, want %d (it reserves %d)",
				n, inLaunch, before, got, want)
		}
		if after := pooled(); after != max(before, want) {
			t.Errorf("a %d-block launch left %d pads in the pool, want %d", n, after, max(before, want))
		}
	}

	pooled = pooledPads(size)
	launchYielding(t, servingDeviceWithPads(size), launches, blocks) // the pool and the runtime's goroutine caches fill
	if n := pooled(); n != blocks {
		t.Fatalf("%d launches of %d blocks left %d pads, want %d", launches, blocks, n, blocks)
	}
	warm := map[*byte]bool{}
	padPool.Lock()
	for _, pad := range padPool.free[size] {
		warm[unsafe.SliceData(pad)] = true
	}
	padPool.Unlock()
	var mu sync.Mutex
	made := 0
	if _, err := servingDeviceWithPads(size).Launch(0, blocks, 32, func(b *Block) error {
		mu.Lock()
		defer mu.Unlock()
		if !warm[unsafe.SliceData(b.Scratch)] {
			made++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if made != 0 || pooled() != blocks {
		t.Fatalf("a fresh device's first %d-block launch ran %d blocks on pads it made after a warm one gave %d back, and left %d pooled",
			blocks, made, blocks, pooled())
	}

	for _, procs := range []int{1, 4} {
		pooled := pooledPads(size)
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			launchYielding(t, servingDeviceWithPads(size), launches, blocks)
		}()
		if n := pooled(); n != blocks {
			t.Errorf("GOMAXPROCS %d: %d launches of %d blocks left %d pads, want %d", procs, launches, blocks, n, blocks)
		}
	}
}

// stampPads runs launches of 200 blocks on every device at once. Each block
// stamps its pad with its device and index, one word every stampStride
// bytes, yields while other blocks run, and finds the stamp intact, so no
// two live blocks ever hold one pad. Each block also checks that its pad is
// its device's size.
func stampPads(t *testing.T, devs ...*Device) {
	const stampStride = 256
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(devs))
	for di, d := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for launch := 0; launch < 8 && errs[di] == nil; launch++ {
				_, errs[di] = d.Launch(0, 200, 32, func(b *Block) error {
					if int64(len(b.Scratch)) != d.cfg.ScratchpadBytes {
						return fmt.Errorf("device %d block %d: a %d B pad, want %d", di, b.Idx, len(b.Scratch), d.cfg.ScratchpadBytes)
					}
					stamp := uint64(di)<<32 | uint64(b.Idx) + 1
					for i := 0; i+8 <= len(b.Scratch); i += stampStride {
						if v := binary.LittleEndian.Uint64(b.Scratch[i:]); v != 0 {
							return fmt.Errorf("device %d block %d: scratch[%d:] = %#x at block start", di, b.Idx, i, v)
						}
						binary.LittleEndian.PutUint64(b.Scratch[i:], stamp)
					}
					runtime.Gosched()
					b.Compute(1e5)
					for i := 0; i+8 <= len(b.Scratch); i += stampStride {
						if v := binary.LittleEndian.Uint64(b.Scratch[i:]); v != stamp {
							return fmt.Errorf("device %d block %d: scratch[%d:] = %#x, another block's stamp", di, b.Idx, i, v)
						}
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestPadNeverSharedByLiveBlocks: at GOMAXPROCS 4 no two live blocks of one
// device hold one pad.
func TestPadNeverSharedByLiveBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := testDevice().cfg
	cfg.ScratchpadBytes = 4 << 10
	stampPads(t, New(cfg))
}

// TestPadNeverSharedAcrossDevices: two devices launching at once at
// GOMAXPROCS 4 take their pads from one pool, and no two live blocks of
// either hold one pad.
func TestPadNeverSharedAcrossDevices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := testDevice().cfg
	cfg.ScratchpadBytes = 4 << 10
	a := New(cfg)
	cfg.ID = 1
	stampPads(t, a, New(cfg))
}

// TestPadPoolKeyedBySize: a 4 KiB-pad device and a 48 KiB-pad device share
// the pool, one after the other and at once, and each block gets a pad of
// its own device's size.
func TestPadPoolKeyedBySize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	small, large := testDevice().cfg, testDevice().cfg
	small.ScratchpadBytes, large.ID = 4<<10, 1
	a, b := New(small), New(large)
	stampPads(t, a)
	stampPads(t, b)
	stampPads(t, a, b)
}

// launchBlocks is the steady-state launch of the allocation guardrail and
// the benchmark: every slot busy, a body that touches its scratchpad and
// never draws from Rand — the shape of the serving and file kernels.
func launchBlocks(tb testing.TB, d *Device, blocks int) {
	_, err := d.Launch(0, blocks, 256, func(b *Block) error {
		b.Scratch[b.Idx%len(b.Scratch)] = 1
		b.Compute(1e3)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// TestLaunchAllocatesNoScratchOrGenerator: a block takes its 48 KiB
// scratchpad from the pads its launch reserved from the process's pool, and
// finds its generator on the slot. What a block still allocates is its Block
// and Clock, and its share of the launch's dispatch state; its share of the
// worker goroutines and of the launch's pad stack costs no allocation, so a
// one-block launch allocates as much on a device of 56 slots as on one of 8.
func TestLaunchAllocatesNoScratchOrGenerator(t *testing.T) {
	oneBlock := func(mps int) float64 {
		cfg := testDevice().cfg
		cfg.MPs = mps
		d := New(cfg)
		for range 100 { // the runtime's goroutine and waiter caches fill
			launchBlocks(t, d, 1)
		}
		return testing.AllocsPerRun(100, func() { launchBlocks(t, d, 1) })
	}
	if small, large := oneBlock(4), oneBlock(28); small != large {
		t.Errorf("a one-block launch makes %.0f allocations on 8 slots and %.0f on 56", small, large)
	}

	d := testDevice()
	const blocks = 64
	launchBlocks(t, d, blocks) // the first launch fills the pool with the pads it lacks
	var before, after runtime.MemStats
	const launches = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		launchBlocks(t, d, blocks)
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / (launches * blocks)
	if perBlock >= 1024 {
		t.Fatalf("steady-state launch allocates %.0f B per block, want < 1024 (scratchpad is %d)",
			perBlock, 48<<10)
	}
	if n := testing.AllocsPerRun(10, func() { launchBlocks(t, d, blocks) }); n > 8*blocks {
		t.Fatalf("steady-state launch makes %.0f allocations for %d blocks", n, blocks)
	}
}

// BenchmarkLaunchBlocks measures a launch: "steady" is 64 blocks on a warm
// 8-slot device; "serving-steady" is 16 blocks on a warm device of the
// shipped 28 slots, the launch a serving host repeats; "fresh-serving" is
// eight 16-block launches on a fresh device of the shipped 28 slots, the
// shape of a serving host's first batches: its B/op shows what a fresh
// device costs once the process's pad pool holds the pads they reserve.
func BenchmarkLaunchBlocks(b *testing.B) {
	steady := func(d *Device, blocks int) func(b *testing.B) {
		return func(b *testing.B) {
			launchBlocks(b, d, blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				launchBlocks(b, d, blocks)
			}
		}
	}
	b.Run("steady", steady(testDevice(), 64))
	b.Run("serving-steady", steady(servingDevice(), 16))
	b.Run("fresh-serving", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := servingDevice()
			b.StartTimer()
			for range 8 {
				launchBlocks(b, d, 16)
			}
		}
	})
}
