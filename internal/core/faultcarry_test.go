package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime/simtest"
	"gpufs/internal/trace"
)

// The fault that carries its stream's window (raCarry in readahead.go): a
// demand miss on the page right after the block's last access reads the
// stream's first window in the same host transaction. The contract: the
// window is speculation under the detector's own clamps and accounting, and a
// carrying fault that fails leaves the machine as a failed one-page fault
// does.

// carriedRead reads len(buf) bytes of fd at off and reports the pages a
// carrying fault brought in with them: speculation the gread issued without a
// relaxed call, which only a fault's strong read can carry. (A gread that also
// refills through spanFetch reports none.)
func carriedRead(fs *FS, b *gpu.Block, fd int, buf []byte, off int64) (n int, carried int64, err error) {
	issued, relaxed := fs.prefetchIssued.Load(), fs.sys.RelaxedCalls()
	n, err = fs.Read(b, fd, buf, off)
	if fs.sys.RelaxedCalls() == relaxed {
		carried = fs.prefetchIssued.Load() - issued
	}
	return n, carried, err
}

// TestCarryingFaultEIO: a carrying fault whose read fails fails its gread with
// the host's error and gives every claim up: the pool's free lists and
// counters, the tree's leaves and every slot of the window are as they were
// before the gread. A retry reads the right bytes, carrying the window again.
// The stream starts past the head the open carried.
func TestCarryingFaultEIO(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	want := pattern(int(3*span*ps), 8)
	h := newFaultHarness(t, opt, faults.Config{Seed: 7, HostReadEIOProb: 1}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/e", want)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/e", O_RDONLY)
		if err != nil {
			return err
		}
		f := fs.ft.fds[fd]
		greadAt(t, fs, b, fd, ps, span*ps) // the stream's first access past the head
		pool, leaves := poolOf(t, fs.cache), f.fc.tree.Leaves()
		issued, pending := fs.CacheStats().PrefetchIssued, fs.specPending.Load()

		h.inj.SetEnabled(true)
		buf := make([]byte, ps)
		if _, err := fs.Read(b, fd, buf, (span+1)*ps); !errors.Is(err, hostfs.ErrIO) {
			t.Errorf("gread of page %d: %v, want the host's I/O error", span+1, err)
		}
		h.inj.SetEnabled(false)
		if got := poolOf(t, fs.cache); !reflect.DeepEqual(got, pool) {
			t.Errorf("the failed carrying fault left the pool\n%+v\nwhere it found\n%+v", got, pool)
		}
		if got := f.fc.tree.Leaves(); got != leaves {
			t.Errorf("%d leaves after the failed fault, %d before", got, leaves)
		}
		for idx := uint64(span + 1); idx <= uint64(2*span); idx++ {
			if fp, _ := f.fc.tree.LookupLeaf(idx); fp != nil && !fp.Empty() {
				t.Errorf("page %d of the window is not empty after the failed fault", idx)
			}
		}
		if cs := fs.CacheStats(); cs.PrefetchIssued != issued || fs.specPending.Load() != pending {
			t.Errorf("the failed carry counted %d pages issued, %d pending", cs.PrefetchIssued-issued, fs.specPending.Load()-pending)
		}

		for p := span + 1; p <= 2*span; p++ {
			n, carried, err := carriedRead(fs, b, fd, buf, p*ps)
			if err != nil || int64(n) != ps || !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
				t.Errorf("retried gread of page %d: n=%d err=%v, or the bytes are not the file's", p, n, err)
			}
			if p == span+1 && carried != span-1 {
				t.Errorf("the retried fault on page %d carried %d pages, want %d", p, carried, span-1)
			}
		}
		return fs.Close(b, fd)
	})
	if h.inj.Injected(faults.HostReadEIO) == 0 {
		t.Fatal("no read failed")
	}
}

// TestCarryingFaultShortReads: the daemon completes a carrying fault's read
// that the host returns piecemeal, like any other, and every carried page
// holds the file's bytes. The stream starts past the head the open carried.
func TestCarryingFaultShortReads(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	want := pattern(int(3*span*ps), 9)
	h := newFaultHarness(t, opt, faults.Config{Seed: 5, HostShortReadProb: 1}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/s", want)
	h.inj.SetEnabled(true)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/s", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, ps)
		for p := span; p <= 2*span; p++ {
			n, carried, err := carriedRead(fs, b, fd, buf, p*ps)
			if err != nil || int64(n) != ps || !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
				t.Errorf("gread of page %d: n=%d err=%v, or the bytes are not the file's", p, n, err)
			}
			wantCarried := int64(0)
			if p == span+1 {
				wantCarried = span - 1
			}
			if carried != wantCarried {
				t.Errorf("the gread of page %d carried %d pages, want %d", p, carried, wantCarried)
			}
		}
		return fs.Close(b, fd)
	})
	if h.inj.Injected(faults.HostShortRead) < 2 {
		t.Fatalf("%d short reads injected; the reassembly loop never ran", h.inj.Injected(faults.HostShortRead))
	}
}

// TestCarryingFaultAllocations: carrying a window costs the fault at most one
// allocation more than a one-page fault: the window's claims live in a fixed
// array and the read's segment vector is the one any fault makes; what is
// left is the reply's count per segment.
func TestCarryingFaultAllocations(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/a", pattern(int(2*span*ps), 1))
	var plain, carrying float64
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/a", O_RDONLY)
		if err != nil {
			return err
		}
		f := fs.ft.fds[fd]
		st := f.streamFor(b.Idx)
		gread(t, fs, b, fd, ps)
		// fault faults page 1 in — as its stream's next access or as a page
		// nothing precedes — then consumes and drops what came in, so the
		// next run faults again and no waste accrues toward a stand-down.
		fault := func(stream bool) func() {
			return func() {
				st.seen, st.lastPage, st.streak, st.frontierOK = stream, 0, 0, false
				for idx := int64(1); idx <= span; idx++ {
					ref, _, err := fs.getPage(b, f, idx, nil)
					if err != nil {
						t.Fatal(err)
					}
					ref.release()
				}
				for idx := uint64(1); idx <= uint64(span); idx++ {
					fp, _ := f.fc.tree.LookupLeaf(idx)
					if fr := fs.beginEvict(fp); fr != nil {
						fs.reclaim(b.Clock, f.fc, fp, fr, false)
					}
				}
			}
		}
		plain = testing.AllocsPerRun(100, fault(false))
		issued, relaxed := fs.prefetchIssued.Load(), fs.sys.RelaxedCalls()
		carrying = testing.AllocsPerRun(100, fault(true))
		if got := fs.prefetchIssued.Load() - issued; got < 100*(span-1) || fs.sys.RelaxedCalls() != relaxed {
			t.Fatalf("the carrying runs speculated %d pages, want %d per run, all in the faults' reads", got, span-1)
		}
		return fs.Close(b, fd)
	})
	slack := 0.0
	if simtest.Race() {
		slack = 1 // the staging pool's dropped Puts
	}
	// The plain runs fault all span pages; the carrying runs fault one.
	perFault := plain / float64(span)
	if carrying > perFault+1+slack {
		t.Errorf("a carrying fault makes %.1f allocations, a one-page fault %.1f: want at most one more", carrying, perFault)
	}
}

// TestStrideTwoNeverCarries: a stride-2 stream's misses are never the page
// after its last access, so no fault carries — nothing speculates an odd page,
// where a carried window would start; the hook's own speculation still runs.
func TestStrideTwoNeverCarries(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	tr := trace.New(1 << 10)
	tr.Enable(true)
	fs.SetTracer(tr)
	want := pattern(48*int(ps), 4)
	h.write(t, "/two", want)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/two", O_RDONLY)
		if err != nil {
			return err
		}
		buf := make([]byte, ps)
		for p := int64(0); p < 48; p += 2 {
			if _, err := fs.Read(b, fd, buf, p*ps); err != nil || !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
				t.Errorf("page %d: err=%v or wrong bytes", p, err)
			}
		}
		return fs.Close(b, fd)
	})
	for _, e := range tr.Snapshot() {
		if e.Op == trace.OpPrefetch && e.Offset/ps%2 == 1 {
			t.Errorf("a stride-2 stream speculated %d bytes from page %d", e.Bytes, e.Offset/ps)
		}
	}
	if cs := fs.CacheStats(); cs.PrefetchIssued == 0 {
		t.Error("the stride-2 stream speculated nothing")
	}
}

// TestCarryAfterOneStepIsBounded: one +1 step followed by random pages costs
// at most one span of speculation past the open's counted head, which the
// cache reclaims unconsumed with the head and counts as waste. Repeated, such
// steps stand the file's speculation down under the hook's own waste rule,
// after which no fault carries.
func TestCarryAfterOneStepIsBounded(t *testing.T) {
	const pages = 512
	opt := defaultOpt() // 64 frames
	ps := opt.PageSize
	span := maxHostIO / ps
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/r", pattern(pages*int(ps), 5))

	// Random pages after the step at 100: none in its window, in the head or
	// next to the page before it, no delta repeated, and enough of them to
	// cycle the cache.
	rng := rand.New(rand.NewSource(1))
	walk := []int64{100, 101}
	used := map[int64]bool{}
	for len(walk) < 2+80 {
		p, last := rng.Int63n(pages), walk[len(walk)-1]
		if used[p] || p >= 100 && p <= 100+span || p < span || p == last+1 || p-last == last-walk[len(walk)-2] {
			continue
		}
		used[p] = true
		walk = append(walk, p)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/r", O_RDONLY)
		if err != nil {
			return err
		}
		f := fs.ft.fds[fd]
		buf := make([]byte, ps)
		for _, p := range walk {
			if _, err := fs.Read(b, fd, buf, p*ps); err != nil {
				return err
			}
		}
		if cs := fs.CacheStats(); cs.PrefetchIssued <= span || cs.PrefetchIssued > span+span-1 || cs.PrefetchUsed != 0 || cs.PrefetchWasted != cs.PrefetchIssued {
			t.Errorf("one step then random pages: %d issued, %d used, %d wasted; want the head's %d and at most %d more issued, all wasted",
				cs.PrefetchIssued, cs.PrefetchUsed, cs.PrefetchWasted, span, span-1)
		}

		// Steps far apart: each carries a window the next steps skip.
		step := func(i int) error {
			p := int64(i*24) % (pages - 16)
			for _, q := range []int64{p, p + 1} {
				if _, err := fs.Read(b, fd, buf, q*ps); err != nil {
					return err
				}
			}
			return nil
		}
		// plan's stand-down: waste has overtaken use over 64 pages.
		stoodDown := func() bool {
			used, wasted := f.fc.prefetchUsed.Load(), f.fc.prefetchWasted.Load()
			return wasted > used && used+wasted >= 64
		}
		i := 0
		for ; i < 400 && !stoodDown(); i++ {
			if err := step(i); err != nil {
				return err
			}
		}
		if !stoodDown() {
			t.Fatalf("%d wasted and %d used pages after %d steps: speculation never stood down", f.fc.prefetchWasted.Load(), f.fc.prefetchUsed.Load(), i)
		}
		issued := fs.CacheStats().PrefetchIssued
		for j := i; j < i+10; j++ {
			if err := step(j); err != nil {
				return err
			}
		}
		if got := fs.CacheStats().PrefetchIssued - issued; got != 0 {
			t.Errorf("after the stand-down the steps' faults carried %d more pages", got)
		}
		return fs.Close(b, fd)
	})
}

// TestRefillKeepsRunway: at 4 KiB pages the window is one span, so a refill is
// less than a span, and it still goes out while the window's earlier pages are
// in flight (Linux's async mark) rather than once the consumer has reached the
// frontier. After the carrying fault on page 1 the scan faults nothing.
func TestRefillKeepsRunway(t *testing.T) {
	const pages = 128
	opt := defaultOpt()
	opt.PageSize = 4 << 10
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	tr := trace.New(1 << 10)
	tr.Enable(true)
	fs.SetTracer(tr)
	h.write(t, "/small", pattern(pages*int(ps), 6))
	refills := 0
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/small", O_RDONLY)
		if err != nil {
			return err
		}
		seen := len(tr.Snapshot())
		for p := int64(0); p < pages; p++ {
			strong := fs.sys.StrongCalls()
			greadAt(t, fs, b, fd, ps, p*ps)
			events := tr.Snapshot()
			if p < 2 {
				seen = len(events)
				continue
			}
			if s := fs.sys.StrongCalls() - strong; s != 0 {
				t.Errorf("gread of page %d made %d strong calls: the stream ran dry", p, s)
			}
			for _, e := range events[seen:] {
				if e.Op != trace.OpPrefetch {
					continue
				}
				refills++
				if e.Offset/ps <= p+1 {
					t.Errorf("gread of page %d refilled from page %d: nothing was left in flight", p, e.Offset/ps)
				}
			}
			seen = len(events)
		}
		return fs.Close(b, fd)
	})
	if refills == 0 {
		t.Fatal("the scan never refilled its window")
	}
}
