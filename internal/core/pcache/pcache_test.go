package pcache

import (
	"bytes"
	"testing"

	"gpufs/internal/memsys"
)

func newCache(t *testing.T, total, page int64) *Cache {
	t.Helper()
	mem := memsys.NewArena("gpu", memsys.DeviceMemory, total*2)
	c, err := NewSharded(mem, total, page, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	mem := memsys.NewArena("gpu", memsys.DeviceMemory, 1<<20)
	if _, err := NewSharded(mem, 1<<20, 0, 1); err == nil {
		t.Fatalf("zero page size accepted")
	}
	if _, err := NewSharded(mem, 100, 4096, 1); err == nil {
		t.Fatalf("cache smaller than one page accepted")
	}
	if _, err := NewSharded(mem, 1<<30, 4096, 1); err == nil {
		t.Fatalf("cache bigger than arena accepted")
	}
}

func TestAllocReleaseCycle(t *testing.T) {
	c := newCache(t, 16<<10, 4<<10)
	if c.NumFrames() != 4 || c.FreeFrames() != 4 {
		t.Fatalf("frames: %d/%d", c.NumFrames(), c.FreeFrames())
	}
	f := c.TryAllocOn(0, 42, 8192)
	if f == nil {
		t.Fatal("alloc failed")
	}
	if !f.Matches(42, 8192) {
		t.Fatalf("identity not stamped")
	}
	if c.FreeFrames() != 3 || c.Allocs() != 1 {
		t.Fatalf("accounting: free=%d allocs=%d", c.FreeFrames(), c.Allocs())
	}
	c.Release(f, true)
	if f.Matches(42, 8192) {
		t.Fatalf("released frame retains identity: stale readers would validate")
	}
	if c.FreeFrames() != 4 || c.Reclaimed() != 1 {
		t.Fatalf("release accounting: free=%d reclaimed=%d", c.FreeFrames(), c.Reclaimed())
	}
}

func TestExhaustion(t *testing.T) {
	c := newCache(t, 8<<10, 4<<10)
	a := c.TryAllocOn(0, 1, 0)
	b := c.TryAllocOn(0, 1, 4096)
	if a == nil || b == nil {
		t.Fatal("allocs failed")
	}
	if c.TryAllocOn(0, 1, 8192) != nil {
		t.Fatalf("alloc beyond capacity succeeded")
	}
	c.Release(a, false)
	if c.TryAllocOn(0, 1, 8192) == nil {
		t.Fatalf("alloc after release failed")
	}
}

func TestFrameForData(t *testing.T) {
	c := newCache(t, 16<<10, 4<<10)
	f := c.Frame(2)
	if got := c.FrameForData(c.RawOffset(2)); got != f {
		t.Fatalf("FrameForData(RawOffset(2)) != Frame(2)")
	}
	if c.FrameForData(1) != nil {
		t.Fatalf("unaligned offset resolved")
	}
	if c.FrameForData(1<<30) != nil {
		t.Fatalf("out-of-range offset resolved")
	}
	if c.FrameForData(-4096) != nil {
		t.Fatalf("negative offset resolved")
	}
}

// TestFramesAliasRaw: the raw data array is one allocation carved into
// frames, so a write through the array at RawOffset(i) is seen through
// frame i's Data, and a write through the frame through the array.
func TestFramesAliasRaw(t *testing.T) {
	c := newCache(t, 16<<10, 4<<10)
	for i := int32(0); i < 4; i++ {
		off := c.RawOffset(i)
		c.raw.Data[off+7] = byte(i + 1)
		if got := c.FrameForData(off).Data[7]; got != byte(i+1) {
			t.Fatalf("frame %d reads %d after a write through the raw array, want %d", i, got, i+1)
		}
		c.Frame(i).Data[9] = byte(i + 100)
		if got := c.raw.Data[off+9]; got != byte(i+100) {
			t.Fatalf("raw array reads %d at frame %d after a write through the frame, want %d", got, i, i+100)
		}
	}
}

func TestFramePagesDisjoint(t *testing.T) {
	c := newCache(t, 16<<10, 4<<10)
	for i := 0; i < 4; i++ {
		for j := range c.Frame(int32(i)).Data {
			c.Frame(int32(i)).Data[j] = byte(i)
		}
	}
	for i := 0; i < 4; i++ {
		for _, v := range c.Frame(int32(i)).Data {
			if v != byte(i) {
				t.Fatalf("frame pages overlap")
			}
		}
	}
}

func TestPristineLifecycle(t *testing.T) {
	c := newCache(t, 8<<10, 4<<10)
	f := c.TryAllocOn(0, 1, 0)
	if f.Pristine() != nil {
		t.Fatalf("fresh frame has pristine")
	}
	f.SetPristine([]byte{1, 2, 3})
	if !bytes.Equal(f.Pristine(), []byte{1, 2, 3}) {
		t.Fatalf("pristine round trip")
	}
	// Pristine is a copy: mutating the source must not leak in.
	src := []byte{9, 9}
	f.SetPristine(src)
	src[0] = 0
	if f.Pristine()[0] != 9 {
		t.Fatalf("pristine aliases caller slice")
	}
	c.Release(f, false)
	if f.Pristine() != nil {
		t.Fatalf("release must clear pristine")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	c := newCache(t, 8<<10, 4<<10)
	f := c.TryAllocOn(0, 1, 0)
	copy(f.Data, []byte("hello"))
	f.ValidBytes.Store(5)
	f.SetPristine([]byte("help!"))
	var buf []byte
	data, pristine, valid := f.Snapshot(&buf)
	if valid != 5 || string(data) != "hello" || string(pristine) != "help!" {
		t.Fatalf("snapshot: %q %q %d", data, pristine, valid)
	}
	// Snapshot is a copy.
	f.Data[0] = 'X'
	if data[0] != 'h' {
		t.Fatalf("snapshot aliases frame data")
	}
	// The next snapshot is appended to the same buffer, past what it held; a
	// page with no pristine copy reports none.
	g := c.TryAllocOn(0, 1, 4<<10)
	copy(g.Data, []byte("bye"))
	g.ValidBytes.Store(3)
	buf = buf[:len(data)]
	again, pristine, valid := g.Snapshot(&buf)
	if valid != 3 || string(again) != "bye" || pristine != nil {
		t.Fatalf("second snapshot: %q %q %d", again, pristine, valid)
	}
	if string(buf) != "hellobye" {
		t.Fatalf("buffer holds %q after two snapshots, want both pages' bytes", buf)
	}
	// Emptied, the buffer is reused.
	buf = buf[:0]
	if third, _, _ := g.Snapshot(&buf); &third[0] != &data[0] {
		t.Fatalf("snapshot did not reuse the buffer it was given")
	}
}

// TestFreeFramesTracksEveryShard: FreeFrames is a count the allocator keeps,
// not a walk of the shards; it must agree with the lists through steals,
// exhaustion and releases to home shards.
func TestFreeFramesTracksEveryShard(t *testing.T) {
	c := newShardedCache(t, 16, 4)
	listed := func() int {
		n := 0
		for i := range c.shards {
			n += len(c.shards[i].free)
		}
		return n
	}
	var held []*Frame
	for i := 0; ; i++ {
		f := c.TryAllocOn(1, 1, int64(i)) // one lane: drains its shard, then steals
		if f == nil {
			break
		}
		held = append(held, f)
		if c.FreeFrames() != listed() || c.FreeFrames() != 16-len(held) {
			t.Fatalf("after %d allocs: FreeFrames %d, lists hold %d", len(held), c.FreeFrames(), listed())
		}
	}
	if len(held) != 16 || c.FreeFrames() != 0 {
		t.Fatalf("drained %d frames, FreeFrames %d", len(held), c.FreeFrames())
	}
	for i, f := range held {
		c.Release(f, i%2 == 0)
		if c.FreeFrames() != listed() || c.FreeFrames() != i+1 {
			t.Fatalf("after %d releases: FreeFrames %d, lists hold %d", i+1, c.FreeFrames(), listed())
		}
	}
}

func TestReleaseResetsFlags(t *testing.T) {
	c := newCache(t, 8<<10, 4<<10)
	f := c.TryAllocOn(0, 1, 0)
	f.Dirty.Store(true)
	f.WriteOnce.Store(true)
	f.ValidBytes.Store(100)
	c.Release(f, false)
	f2 := c.TryAllocOn(0, 2, 4096)
	if f2.Dirty.Load() || f2.WriteOnce.Load() || f2.ValidBytes.Load() != 0 {
		t.Fatalf("recycled frame carries stale flags")
	}
}

func TestResetTimesClearsReadyAt(t *testing.T) {
	c := newCache(t, 8<<10, 4<<10)
	f := c.TryAllocOn(0, 1, 0)
	f.ReadyAt.Store(12345)
	c.ResetTimes()
	if f.ReadyAt.Load() != 0 {
		t.Fatalf("ReadyAt survived ResetTimes")
	}
}
