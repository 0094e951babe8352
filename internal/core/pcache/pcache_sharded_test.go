package pcache

import (
	"slices"
	"testing"

	"gpufs/internal/memsys"
)

func newShardedCache(t *testing.T, frames, nshards int) *Cache {
	t.Helper()
	mem := memsys.NewArena("gpu", memsys.DeviceMemory, int64(frames)*4096*2)
	c, err := NewSharded(mem, int64(frames)*4096, 4096, nshards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedStealOnEmpty releases frames into one shard only and checks a
// lane homed elsewhere steals them rather than reporting exhaustion.
func TestShardedStealOnEmpty(t *testing.T) {
	c := newShardedCache(t, 16, 4)
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", c.Shards())
	}

	// Drain the pool completely.
	var all []*Frame
	for {
		f := c.TryAllocOn(0, 1, int64(len(all))*4096)
		if f == nil {
			break
		}
		all = append(all, f)
	}
	if len(all) != 16 {
		t.Fatalf("allocated %d frames, want 16", len(all))
	}

	// Release only the frames homed on shard 2.
	freed := 0
	for _, f := range all {
		if int(f.Index)%4 == 2 {
			c.Release(f, false)
			freed++
		}
	}
	if freed != 4 {
		t.Fatalf("freed %d shard-2 frames, want 4", freed)
	}

	// A lane homed on shard 1 must steal all of them.
	before := c.Steals()
	for i := 0; i < freed; i++ {
		f := c.TryAllocOn(1, 2, int64(i)*4096)
		if f == nil {
			t.Fatalf("alloc %d: spurious exhaustion with %d frames free elsewhere", i, freed-i)
		}
		if int(f.Index)%4 != 2 {
			t.Fatalf("alloc %d: got frame %d from shard %d, want shard 2", i, f.Index, int(f.Index)%4)
		}
	}
	if got := c.Steals() - before; got != int64(freed) {
		t.Errorf("Steals() advanced by %d, want %d", got, freed)
	}
	if c.TryAllocOn(1, 2, 0) != nil {
		t.Error("allocation succeeded from an empty pool")
	}
}

// TestSingleShardMatchesLIFO checks nshards=1 reproduces the original
// allocator's LIFO order exactly (the bit-identical baseline contract).
func TestSingleShardMatchesLIFO(t *testing.T) {
	a := newShardedCache(t, 8, 1)
	b := newShardedCache(t, 8, 1)
	for i := 0; i < 8; i++ {
		fa := a.TryAllocOn(0, 1, int64(i)*4096)
		fb := b.TryAllocOn(int(3+i), 1, int64(i)*4096) // lane must be irrelevant at 1 shard
		if fa == nil || fb == nil || fa.Index != fb.Index {
			t.Fatalf("alloc %d: order diverges (%v vs %v)", i, fa, fb)
		}
	}
}

// TestReleaseReturnsToHomeShard checks frames go back to the shard their
// index hashes to, keeping shard occupancy stable under churn.
func TestReleaseReturnsToHomeShard(t *testing.T) {
	c := newShardedCache(t, 8, 2)
	f := c.TryAllocOn(0, 1, 0)
	if f == nil {
		t.Fatal("alloc failed")
	}
	home := int(f.Index) % 2
	c.Release(f, false)
	// Draining the OTHER shard must leave f's home shard holding f.
	other := 1 - home
	var held []*Frame
	for {
		g := c.TryAllocOn(other, 2, 0)
		if g == nil || int(g.Index)%2 != other {
			if g != nil {
				c.Release(g, false)
			}
			break
		}
		held = append(held, g)
	}
	got := c.TryAllocOn(home, 3, 4096)
	if got == nil {
		t.Fatal("home shard empty after release")
	}
	if int(got.Index)%2 != home {
		t.Errorf("frame %d came from shard %d, want home shard %d", got.Index, int(got.Index)%2, home)
	}
	_ = held
}

// TestUnallocIsTheInverseOfAlloc: frames taken one after another — from the
// lane's home shard, then stolen once it runs dry — and handed back newest
// first leave every shard's list, the free count and the counters as they
// were, and the frames with no tenant.
func TestUnallocIsTheInverseOfAlloc(t *testing.T) {
	c := newShardedCache(t, 8, 4) // two frames a shard
	before := make([][]int32, len(c.shards))
	for i := range c.shards {
		before[i] = slices.Clone(c.shards[i].free)
	}
	c.TryAllocOn(3, 9, 0) // history that must survive: one allocation, no steal

	const lane = 1
	var taken []*Frame
	for i := 0; i < 5; i++ { // two from home, three stolen
		taken = append(taken, c.TryAllocOn(lane, 7, int64(i)*4096))
	}
	if c.Allocs() != 6 || c.Steals() != 3 || c.FreeFrames() != 2 {
		t.Fatalf("after five allocations: %d allocs, %d steals, %d free", c.Allocs(), c.Steals(), c.FreeFrames())
	}
	for i := len(taken) - 1; i >= 0; i-- {
		c.Unalloc(lane, taken[i])
	}
	if c.Allocs() != 1 || c.Steals() != 0 || c.FreeFrames() != 7 {
		t.Errorf("after handing them back: %d allocs, %d steals, %d free; want 1, 0, 7", c.Allocs(), c.Steals(), c.FreeFrames())
	}
	before[3] = before[3][:1] // lane 3's allocation stands
	for i := range c.shards {
		if !slices.Equal(c.shards[i].free, before[i]) {
			t.Errorf("shard %d lists %v, want %v", i, c.shards[i].free, before[i])
		}
	}
	for _, f := range taken {
		if !f.Matches(0, -1) {
			t.Errorf("frame %d still has a tenant", f.Index)
		}
	}
}
