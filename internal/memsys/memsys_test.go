package memsys

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	a := NewArena("t", DeviceMemory, 1024)
	b, err := a.Alloc(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 512 || a.Used() != 512 || a.Free() != 512 {
		t.Fatalf("size/used/free wrong: %d %d %d", b.Size(), a.Used(), a.Free())
	}
	b.Data[0] = 0xAA
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 0 || a.LiveAllocs() != 0 {
		t.Fatalf("free did not release")
	}
	// Double free is a no-op (block cleared).
	if err := b.Free(); err != nil {
		t.Fatalf("freeing a freed block should be nil, got %v", err)
	}
}

func TestAllocAlignment(t *testing.T) {
	a := NewArena("t", DeviceMemory, 4096)
	if _, err := a.Alloc(10, 0); err != nil {
		t.Fatal(err)
	}
	b, err := a.Alloc(64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if b.Offset%256 != 0 {
		t.Fatalf("offset %d not 256-aligned", b.Offset)
	}
	if _, err := a.Alloc(8, 3); err == nil {
		t.Fatalf("non-power-of-two alignment must fail")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := NewArena("t", DeviceMemory, 100)
	if _, err := a.Alloc(80, 0); err != nil {
		t.Fatal(err)
	}
	_, err := a.Alloc(40, 0)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if _, err := a.Alloc(0, 0); err == nil {
		t.Fatalf("zero-size alloc must fail")
	}
	if _, err := a.Alloc(-1, 0); err == nil {
		t.Fatalf("negative alloc must fail")
	}
}

func TestFreeCoalescing(t *testing.T) {
	a := NewArena("t", DeviceMemory, 300)
	b1, _ := a.Alloc(100, 0)
	b2, _ := a.Alloc(100, 0)
	b3, _ := a.Alloc(100, 0)
	// Free the middle, then the first: spans must coalesce so a 200-byte
	// allocation fits again.
	if err := b2.Free(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(200, 0); err != nil {
		t.Fatalf("coalescing failed: %v", err)
	}
	b3.Free()
}

func TestBlocksDisjoint(t *testing.T) {
	// Property: live allocations never overlap, and used-byte accounting
	// stays exact under random alloc/free traffic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena("p", PinnedHost, 1<<16)
		var live []*Block
		var used int64
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(rng.Intn(2000) + 1)
				b, err := a.Alloc(size, 1<<uint(rng.Intn(6)))
				if err != nil {
					continue
				}
				live = append(live, b)
				used += size
			} else {
				i := rng.Intn(len(live))
				used -= live[i].Size()
				if live[i].Free() != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		if a.Used() != used {
			return false
		}
		// Overlap check.
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				aS, aE := live[i].Offset, live[i].Offset+live[i].Size()
				bS, bE := live[j].Offset, live[j].Offset+live[j].Size()
				if aS < bE && bS < aE {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakTracking(t *testing.T) {
	a := NewArena("t", DeviceMemory, 1000)
	b1, _ := a.Alloc(400, 0)
	b2, _ := a.Alloc(500, 0)
	b1.Free()
	b2.Free()
	if a.Peak() != 900 {
		t.Fatalf("peak = %d, want 900", a.Peak())
	}
}

func TestKindString(t *testing.T) {
	if DeviceMemory.String() != "device" || PinnedHost.String() != "pinned-host" || SharedHost.String() != "shared-host" {
		t.Fatalf("kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("unknown kind string wrong")
	}
}

func TestDataAliasing(t *testing.T) {
	// (a) Two views of one live block share bytes: DMA into the buffer
	// cache's raw array must be visible through a frame's sub-slice, cut
	// the way pcache cuts frames.
	a := NewArena("t", DeviceMemory, 256)
	raw, _ := a.Alloc(128, 0)
	frame := raw.Data[64:128:128]
	raw.Data[64+5] = 42
	if frame[5] != 42 {
		t.Fatalf("a write through the block is not seen through its sub-slice")
	}
	// (b) Every Alloc reads zero, even at offsets a freed block wrote.
	for i := range raw.Data {
		raw.Data[i] = 0xFF
	}
	off := raw.Offset
	raw.Free()
	b, _ := a.Alloc(256, 0)
	if b.Offset != off {
		t.Fatalf("re-Alloc at offset %d, want the freed block's %d", b.Offset, off)
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("byte %d of a fresh Alloc reads %#x, want 0", i, v)
		}
	}
}

// TestArenaBacksOnlyAllocations: an arena's capacity costs the host
// nothing; only its allocations are backed.
func TestArenaBacksOnlyAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewArena("card", DeviceMemory, 1<<30)
	b, err := a.Alloc(1<<20, 256)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 1 GiB arena with a 1 MiB allocation allocated %d B on the host, want < 2 MiB", got)
	}
	b.Free()
}
