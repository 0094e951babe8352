package gpu

import (
	"sync"
	"testing"

	"gpufs/internal/simtime"
)

// The contract of overlapping launches (see Launch): what internal/serve
// leans on when it issues a kernel while the last one's tail still runs.

const (
	us       = simtime.Microsecond
	overhead = 10 * us
)

// ran is one executed block as the tests below see it.
type ran struct {
	idx        int
	mp         *simtime.Resource
	start, end simtime.Time
}

// launchBusy issues a kernel at the given time whose block i stays busy on
// its MP for work(i), and returns every block's placement and the kernel's
// end.
func launchBusy(t *testing.T, d *Device, at simtime.Time, blocks int, work func(idx int) simtime.Duration) ([]ran, simtime.Time) {
	t.Helper()
	out := make([]ran, blocks)
	var mu sync.Mutex
	end, err := d.Launch(at, blocks, 32, func(b *Block) error {
		start := b.Clock.Now()
		b.Busy(work(b.Idx))
		mu.Lock()
		out[b.Idx] = ran{b.Idx, b.mp, start, b.Clock.Now()}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, end
}

func TestOverlappingLaunchesShareTheDevice(t *testing.T) {
	// 4 MPs x 2 slots. The first kernel's two blocks leave two MPs idle;
	// the next two kernels are issued one overhead apart, long before it
	// ends.
	d := testDevice()
	const work = 100 * us
	sizes := []int{2, 8, 8}
	var (
		kernels  [][]ran
		total    simtime.Duration
		lastDisp simtime.Time
	)
	for k, blocks := range sizes {
		issue := simtime.Time(k) * simtime.Time(overhead)
		blks, end := launchBusy(t, d, issue, blocks, func(int) simtime.Duration { return work })
		var disp simtime.Time
		for _, b := range blks {
			if b.start < issue.Add(overhead) {
				t.Fatalf("kernel %d block %d started at %v, before issue %v + overhead", k, b.idx, b.start, issue)
			}
			if b.start < lastDisp {
				t.Fatalf("kernel %d block %d started at %v, before kernel %d's last dispatch at %v",
					k, b.idx, b.start, k-1, lastDisp)
			}
			if b.end > end {
				t.Fatalf("kernel %d ended at %v before its block %d did at %v", k, end, b.idx, b.end)
			}
			disp = max(disp, b.start)
			total += work
		}
		lastDisp = disp
		kernels = append(kernels, blks)
	}

	// The second kernel did take what the first left idle: it had blocks
	// running before the first kernel's ended.
	firstEnd := max(kernels[0][0].end, kernels[0][1].end)
	overlapped := false
	for _, b := range kernels[1] {
		overlapped = overlapped || b.start < firstEnd
	}
	if !overlapped {
		t.Fatalf("no block of kernel 1 started before kernel 0 ended at %v: launches did not overlap", firstEnd)
	}

	// Every charged nanosecond is on exactly one MP's calendar, and no MP
	// was busy for longer than the span its blocks ran in.
	type span struct{ from, to simtime.Time }
	spans := map[*simtime.Resource]span{}
	for _, blks := range kernels {
		for _, b := range blks {
			s, ok := spans[b.mp]
			if !ok {
				s = span{b.start, b.end}
			}
			spans[b.mp] = span{min(s.from, b.start), max(s.to, b.end)}
		}
	}
	var busy simtime.Duration
	for mp, s := range spans {
		if mp.Busy() > s.to.Sub(s.from) {
			t.Fatalf("%s busy %v within a span of %v: calendar double-booked", mp.Name(), mp.Busy(), s.to.Sub(s.from))
		}
	}
	for _, b := range d.MPBusy() {
		busy += b
	}
	if busy != total {
		t.Fatalf("MPs busy %v in all, blocks charged %v", busy, total)
	}
}

func TestSeventeenthKernelWaits(t *testing.T) {
	// One slot per MP and more slots than kernels, so only the kernel table
	// can make a launch wait. Kernel i of the first sixteen runs (200 -
	// 10i) µs: the last issued ends first.
	d := New(Config{MPs: 20, BlocksPerMP: 1, MemBytes: 1 << 20, LaunchOverhead: overhead})
	earliest := simtime.Time(1 << 62)
	for i := 0; i < MaxResidentKernels; i++ {
		blks, end := launchBusy(t, d, 0, 1, func(int) simtime.Duration { return simtime.Duration(200-10*i) * us })
		if blks[0].start != simtime.Time(overhead) {
			t.Fatalf("kernel %d started at %v with %d kernels resident, want %v", i, blks[0].start, i, overhead)
		}
		earliest = min(earliest, end)
	}
	if want := simtime.Time(overhead + 50*us); earliest != want {
		t.Fatalf("earliest end of the sixteen = %v, want %v", earliest, want)
	}
	blks, end17 := launchBusy(t, d, 0, 1, func(int) simtime.Duration { return 5 * us })
	if blks[0].start != earliest {
		t.Fatalf("17th kernel started at %v, want the earliest end of the 16 resident, %v", blks[0].start, earliest)
	}
	// The 17th took the entry that freed; the 18th waits for the next end,
	// whichever of the two that is.
	blks, _ = launchBusy(t, d, 0, 1, func(int) simtime.Duration { return 5 * us })
	if want := min(end17, simtime.Time(overhead+60*us)); blks[0].start != want {
		t.Fatalf("18th kernel started at %v, want %v", blks[0].start, want)
	}

	d.ResetTime()
	blks, _ = launchBusy(t, d, 0, 1, func(int) simtime.Duration { return 5 * us })
	if blks[0].start != simtime.Time(overhead) {
		t.Fatalf("after ResetTime a kernel started at %v, want %v: the kernel table was not cleared", blks[0].start, overhead)
	}
}

func TestSequentialLaunchesUnchanged(t *testing.T) {
	// A caller that issues each kernel at the previous one's end, or at 0
	// after ResetTime, never meets another kernel. The block start times
	// below (ns) were taken at the commit before launches could overlap: 10
	// blocks, block i busy 10(i+1) µs, on 8 MPs x 1 slot, default seed.
	d := New(Config{MPs: 8, BlocksPerMP: 1, MemBytes: 1 << 20, LaunchOverhead: overhead})
	work := func(idx int) simtime.Duration { return simtime.Duration(idx+1) * 10 * us }
	check := func(name string, at simtime.Time, want [10]simtime.Time, wantEnd simtime.Time) simtime.Time {
		t.Helper()
		blks, end := launchBusy(t, d, at, 10, work)
		for i, b := range blks {
			if b.start != want[i] || b.end != want[i].Add(work(i)) {
				t.Fatalf("%s block %d ran [%d, %d], want [%d, %d]", name, i, b.start, b.end, want[i], want[i].Add(work(i)))
			}
		}
		if end != wantEnd {
			t.Fatalf("%s ended at %d, want %d", name, end, wantEnd)
		}
		return end
	}
	at := check("kernel 0", 0,
		[10]simtime.Time{10000, 50000, 20000, 10000, 10000, 10000, 10000, 10000, 10000, 10000}, 110000)
	at = check("kernel 1", at,
		[10]simtime.Time{120000, 150000, 120000, 120000, 120000, 120000, 120000, 120000, 130000, 120000}, 220000)
	check("kernel 2", at,
		[10]simtime.Time{230000, 260000, 230000, 230000, 240000, 230000, 230000, 230000, 230000, 230000}, 330000)
	d.ResetTime()
	check("kernel after ResetTime", 0,
		[10]simtime.Time{10000, 10000, 30000, 20000, 10000, 10000, 10000, 10000, 10000, 10000}, 110000)
}
