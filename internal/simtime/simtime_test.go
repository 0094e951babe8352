package simtime

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestTransferTime(t *testing.T) {
	cases := []struct {
		n    int64
		r    Rate
		want Duration
	}{
		{1e6, MBps, Second},
		{5e5, MBps, Second / 2},
		{0, MBps, 0},
		{-5, MBps, 0},
		{1e9, 0, 0},  // zero rate = free (Figure 5 exclusions)
		{1e9, -1, 0}, // negative rate = free
		{1e9, GBps, Second},
	}
	for _, c := range cases {
		if got := TransferTime(c.n, c.r); got != c.want {
			t.Errorf("TransferTime(%d, %v) = %v, want %v", c.n, c.r, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	if got := Time(100).Add(-5); got != 100 {
		t.Errorf("negative durations must not move clocks backwards: got %v", got)
	}
	if got := Time(100).Add(5); got != 105 {
		t.Errorf("Add: got %v", got)
	}
	if got := Time(50).Sub(100); got != 0 {
		t.Errorf("Sub clamps at zero: got %v", got)
	}
	if got := Time(100).Sub(40); got != 60 {
		t.Errorf("Sub: got %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		2 * Second:         "2.000s",
		3 * Millisecond:    "3.000ms",
		7 * Microsecond:    "7.000µs",
		42 * Nanosecond:    "42ns",
		1500 * Millisecond: "1.500s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("x")
	s1, e1 := r.Acquire(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first acquire [%d,%d], want [0,100]", s1, e1)
	}
	s2, e2 := r.Acquire(0, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second acquire [%d,%d], want [100,200]", s2, e2)
	}
	if r.Busy() != 200 {
		t.Fatalf("busy = %v, want 200", r.Busy())
	}
	if r.Ops() != 2 {
		t.Fatalf("ops = %d, want 2", r.Ops())
	}
}

func TestResourceBackfill(t *testing.T) {
	r := NewResource("x")
	// A caller far in the future reserves [1000, 1100].
	r.Acquire(1000, 100)
	// A virtually-earlier caller must NOT queue behind it.
	s, e := r.Acquire(0, 100)
	if s != 0 || e != 100 {
		t.Fatalf("backfill failed: got [%d,%d], want [0,100]", s, e)
	}
	// A reservation that does not fit in the remaining gap goes after.
	s, e = r.Acquire(50, 950)
	if s != 1100 {
		t.Fatalf("oversized reservation should go after [1000,1100]: start %d", s)
	}
	_ = e
}

func TestResourceGapFilling(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 10)   // [0,10]
	r.Acquire(100, 10) // [100,110]
	// Fits exactly in the gap.
	s, e := r.Acquire(10, 90)
	if s != 10 || e != 100 {
		t.Fatalf("gap fill: got [%d,%d], want [10,100]", s, e)
	}
	// Calendar is now one merged interval; NextFree reflects the last end.
	if nf := r.NextFree(); nf != 110 {
		t.Fatalf("NextFree = %v, want 110", nf)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	s, e := r.Acquire(50, 0)
	if s != 50 || e != 50 {
		t.Fatalf("zero-duration acquire should be free: [%d,%d]", s, e)
	}
	if r.Ops() != 1 {
		t.Fatalf("zero acquires should not count as ops: %d", r.Ops())
	}
}

func TestResourceOccupy(t *testing.T) {
	r := NewResource("x")
	r.Occupy(100, 200)
	s, _ := r.Acquire(150, 10)
	if s != 200 {
		t.Fatalf("acquire inside occupied range: start %d, want 200", s)
	}
	// Overlapping occupy merges.
	r.Occupy(150, 300)
	s, _ = r.Acquire(120, 10)
	if s != 300 {
		t.Fatalf("after merged occupy, start %d, want 300", s)
	}
	// Inverted/empty occupy is a no-op.
	before := r.Busy()
	r.Occupy(500, 500)
	r.Occupy(500, 400)
	if r.Busy() != before {
		t.Fatalf("empty occupy changed busy time")
	}
}

// TestResourceOccupyOverlap: Occupy returns the part of [from, to) the
// calendar already held, and Busy plus the overlaps is the length of
// everything booked.
func TestResourceOccupyOverlap(t *testing.T) {
	r := NewResource("x")
	var booked, overlap Duration
	for _, c := range []struct {
		from, to Time
		overlap  Duration
	}{
		{100, 200, 0},   // empty calendar
		{200, 250, 0},   // touches the end: nothing booked twice
		{150, 300, 100}, // [150, 250) was booked
		{50, 400, 200},  // covers [100, 300)
		{500, 600, 0},
		{350, 550, 100}, // [350, 400) and [500, 550)
		{700, 700, 0},   // empty
	} {
		got := r.Occupy(c.from, c.to)
		if got != c.overlap {
			t.Fatalf("Occupy(%d, %d) overlapped %v, want %v", c.from, c.to, got, c.overlap)
		}
		booked += c.to.Sub(c.from)
		overlap += got
	}
	if r.Busy()+overlap != booked || r.Busy() != 600-50 {
		t.Fatalf("busy %v + overlap %v, want %v booked of which %v busy", r.Busy(), overlap, booked, 600-50)
	}
}

// TestResourceOccupyInPlace: a booking in the middle of a long calendar is
// merged within the calendar's own array. The daemon workers' calendars hold
// thousands of intervals and every request books its stretches with Occupy,
// so a copy of the tail per call is host memory per request.
func TestResourceOccupyInPlace(t *testing.T) {
	r := NewResource("cal")
	for i := 0; i < 2048; i++ {
		r.Occupy(Time(i*100), Time(i*100+10))
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		r.Occupy(Time(k*100+5), Time(k*100+20)) // extends interval k
	})
	if allocs != 0 {
		t.Errorf("Occupy onto a booked stretch makes %.0f allocations, want 0", allocs)
	}
	if got, want := r.Busy(), Duration(2048*10+1001*10); got != want {
		t.Errorf("Busy %v after the extensions, want %v", got, want)
	}
}

func TestResourceProbe(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	if got := r.Probe(0, 50); got != 100 {
		t.Fatalf("probe: %v, want 100", got)
	}
	// Probe must not reserve.
	s, _ := r.Acquire(0, 50)
	if s != 100 {
		t.Fatalf("after probe, acquire start %d, want 100", s)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 100)
	r.Reset()
	if r.Busy() != 0 || r.Ops() != 0 || r.NextFree() != 0 {
		t.Fatalf("reset did not clear state")
	}
	s, _ := r.Acquire(0, 10)
	if s != 0 {
		t.Fatalf("after reset, acquire start %d", s)
	}
}

// TestResourceCalendarInvariants property-checks that any sequence of
// acquires yields disjoint reservations whose total equals the busy
// counter.
func TestResourceCalendarInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("prop")
		type ival struct{ s, e Time }
		var got []ival
		var total Duration
		for i := 0; i < 200; i++ {
			now := Time(rng.Int63n(10_000))
			d := Duration(rng.Int63n(500) + 1)
			s, e := r.Acquire(now, d)
			if s < now || e != s.Add(d) {
				return false
			}
			got = append(got, ival{s, e})
			total += d
		}
		if r.Busy() != total {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i].s < got[j].s })
		for i := 1; i < len(got); i++ {
			if got[i].s < got[i-1].e {
				return false // overlap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceBusyIsCalendarLength checks, over seeded mixes of Acquire and
// Occupy, that Busy is the summed length of the calendar's intervals: an
// Occupy that lands on time already booked adds only what it newly covers.
func TestResourceBusyIsCalendarLength(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("prop")
		for i := 0; i < 300; i++ {
			at := Time(rng.Int63n(20_000))
			d := Duration(rng.Int63n(400) + 1)
			if rng.Intn(2) == 0 {
				r.Acquire(at, d)
			} else {
				r.Occupy(at, at.Add(d))
			}
			var want Duration
			for j, iv := range r.cal {
				if iv.end <= iv.start || j > 0 && iv.start <= r.cal[j-1].end {
					t.Fatalf("seed %d step %d: calendar not sorted and disjoint: %v", seed, i, r.cal)
				}
				want += iv.end.Sub(iv.start)
			}
			if got := r.Busy(); got != want {
				t.Fatalf("seed %d step %d: Busy %v, calendar holds %v", seed, i, got, want)
			}
		}
	}
}

func TestResourceConcurrent(t *testing.T) {
	r := NewResource("x")
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := Time(0)
			for i := 0; i < perG; i++ {
				_, end := r.Acquire(now, 7)
				now = end
			}
		}(g)
	}
	wg.Wait()
	if want := Duration(goroutines * perG * 7); r.Busy() != want {
		t.Fatalf("busy = %v, want %v", r.Busy(), want)
	}
	// Perfect packing: the calendar should be exactly as long as the work.
	if nf := r.NextFree(); nf != Time(goroutines*perG*7) {
		t.Fatalf("NextFree = %v, want %v (no holes for saturating load)", nf, goroutines*perG*7)
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool("dma", 4)
	// Four simultaneous transfers proceed in parallel.
	for i := 0; i < 4; i++ {
		s, _ := p.Acquire(0, 100)
		if s != 0 {
			t.Fatalf("channel %d: start %v, want 0", i, s)
		}
	}
	// The fifth queues.
	s, _ := p.Acquire(0, 100)
	if s != 100 {
		t.Fatalf("fifth acquire start %v, want 100", s)
	}
	if p.Size() != 4 {
		t.Fatalf("size = %d", p.Size())
	}
	if p.Busy() != 500 {
		t.Fatalf("busy = %v", p.Busy())
	}
	p.Reset()
	if p.Busy() != 0 {
		t.Fatalf("reset failed")
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Observe(Time(i * 10))
		}(i)
	}
	wg.Wait()
	if m.Max() != 310 {
		t.Fatalf("max = %v, want 310", m.Max())
	}
	m.Reset()
	if m.Max() != 0 {
		t.Fatalf("reset failed")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(5)
	if c.Now() != 5 {
		t.Fatalf("start")
	}
	c.Advance(10)
	if c.Now() != 15 {
		t.Fatalf("advance")
	}
	c.AdvanceTo(10) // backwards: no-op
	if c.Now() != 15 {
		t.Fatalf("AdvanceTo must be monotone")
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Fatalf("AdvanceTo forward")
	}
	r := NewResource("x")
	r.Acquire(0, 100)
	c.Use(r, 10)
	if c.Now() != 110 {
		t.Fatalf("Use should advance through the queue: %v", c.Now())
	}
	f := c.Fork()
	f.Advance(5)
	if f.Now() != 115 || c.Now() != 110 {
		t.Fatalf("Fork: fork at %v, forked clock at %v", f.Now(), c.Now())
	}
}
