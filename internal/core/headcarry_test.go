package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"gpufs/internal/core/pcache"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/trace"
)

// The head a host open carries (offer / accept in page.go, openPlan in
// readahead.go): where the gate admits a guess, a strong open reads its
// file's first span whatever the file's size. A head that is less than the
// file is a guess — counted, fed back and capped as speculation — and it
// primes the opener's detector slot; a dry pool may reclaim closed clean pages
// for it, and nothing else.

// specOf reports the speculation mark of page idx of fc, or -1 when the page
// is not resident.
func specOf(fs *FS, fc *fileCache, idx int64) int32 {
	fp, _ := fc.tree.LookupLeaf(uint64(idx))
	if fp == nil || !fp.Ready() {
		return -1
	}
	return fs.cache.Frame(fp.Frame()).Spec.Load()
}

// TestOpenCarriesTheHead: at 16 KiB pages a front-to-back gread of a file of
// four spans sends exactly one strong call, the open, which carries the first
// span as speculation and leaves the opener's slot on stride 1 at page −1 with
// its frontier past the head; every later read is a relaxed whole span, and
// the scan uses every page speculated.
func TestOpenCarriesTheHead(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	pages := 4 * span
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	tr := trace.New(1 << 10)
	tr.Enable(true)
	fs.SetTracer(tr)
	want := pattern(int(pages*ps), 7)
	h.write(t, "/h", want)
	h.run(t, 0, func(b *gpu.Block) error {
		strong, relaxed := fs.sys.StrongCalls(), fs.sys.RelaxedCalls()
		fd, err := fs.Open(b, "/h", O_RDONLY)
		if err != nil {
			return err
		}
		f := fs.ft.fds[fd]
		for p := int64(0); p < pages; p++ {
			if got, wantSpec := specOf(fs, f.fc, p), int32(pcache.SpecPending); p < span && got != wantSpec || p >= span && got != -1 {
				t.Errorf("page %d after the open: spec %d, want the head (pages 0-%d) pending and nothing else", p, got, span-1)
			}
		}
		if cs := fs.CacheStats(); cs.PrefetchIssued != span || fs.specPending.Load() != span || cs.OpenFilled != span {
			t.Errorf("the open issued %d, left %d pending and filled %d, want the head's %d each", cs.PrefetchIssued, fs.specPending.Load(), cs.OpenFilled, span)
		}
		st := f.streamFor(b.Idx)
		if !st.seen || st.first != 0 || st.lastPage != -1 || st.stride != 1 || st.streak != 1 ||
			int64(st.window) < span || !st.frontierOK || st.nextPf != span {
			t.Errorf("the opener's slot is %+v; want it seen at page -1 on stride 1, a span's window and its frontier at %d", st, span)
		}

		seen := len(tr.Snapshot())
		buf := make([]byte, ps)
		for p := int64(0); p < pages; p++ {
			if n, err := fs.Read(b, fd, buf, p*ps); err != nil || int64(n) != ps || !bytes.Equal(buf, want[p*ps:(p+1)*ps]) {
				t.Fatalf("gread of page %d: n=%d err=%v, or the bytes are not the file's", p, n, err)
			}
		}
		if s := fs.sys.StrongCalls() - strong; s != 1 {
			t.Errorf("the open and the scan made %d strong calls, want 1: the open", s)
		}
		var spans []int64
		for _, e := range tr.Snapshot()[seen:] {
			if e.Op == trace.OpPrefetch {
				if e.Bytes != maxHostIO {
					t.Errorf("a relaxed read of %d bytes at page %d, want whole spans", e.Bytes, e.Offset/ps)
				}
				spans = append(spans, e.Offset/ps)
			}
		}
		if r := fs.sys.RelaxedCalls() - relaxed; r != int64(len(spans)) || len(spans) != 3 ||
			spans[0] != span || spans[1] != 2*span || spans[2] != 3*span {
			t.Errorf("%d relaxed calls, spans from pages %v; want three, from %d, %d and %d", r, spans, span, 2*span, 3*span)
		}
		return fs.Close(b, fd)
	})
	if cs := fs.CacheStats(); cs.PrefetchIssued != pages || cs.PrefetchUsed != pages || cs.PrefetchWasted != 0 {
		t.Errorf("%d issued, %d used, %d wasted; want all %d pages issued and used", cs.PrefetchIssued, cs.PrefetchUsed, cs.PrefetchWasted, pages)
	}
}

// TestHeadCarryStaysOutOfTheDeadZone: at 32 KiB pages no guess is made, so a
// file larger than a span carries nothing and its open costs exactly what the
// prototype's plain open does; a file that fits still rides in whole, as
// nobody's guess.
func TestHeadCarryStaysOutOfTheDeadZone(t *testing.T) {
	type outcome struct {
		open             simtime.Duration
		filled, resident int64
		issued, requests int64
	}
	open := func(opt Options, size int64) (o outcome, specs []int32) {
		opt.PageSize = raDeadPage
		opt.BufferCacheBytes = 64 * opt.PageSize
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		h.write(t, "/z", pattern(int(size), 5))
		_, err := h.devs[0].Launch(simtime.Time(simtime.Second), 1, 64, func(b *gpu.Block) error {
			var fd int
			var err error
			o.open = elapsed(b, func() { fd, err = fs.Open(b, "/z", O_RDONLY) })
			if err != nil {
				return err
			}
			o.filled, o.resident = fs.openFilled.Load(), fs.ResidentPages("/z")
			o.issued, o.requests = fs.CacheStats().PrefetchIssued, h.server.TotalRequests()
			for p := int64(0); p < o.resident; p++ {
				specs = append(specs, specOf(fs, fs.ft.fds[fd].fc, p))
			}
			return fs.Close(b, fd)
		})
		if err != nil {
			t.Fatal(err)
		}
		return o, specs
	}
	span := int64(maxHostIO / raDeadPage)
	large := int64(maxHostIO + raDeadPage)
	got, _ := open(defaultOpt(), large)
	if plain, _ := open(prototypeOpt(), large); got != plain || got.filled != 0 || got.requests != 1 {
		t.Errorf("a file past the span in the dead zone: %+v; want the prototype's plain open %+v, one request and nothing carried", got, plain)
	}
	fits, specs := open(defaultOpt(), maxHostIO)
	if fits.filled != span || fits.resident != span || fits.issued != 0 || fits.requests != 1 {
		t.Errorf("a file that fits in the dead zone: %+v; want its %d pages carried by the one request, none issued as speculation", fits, span)
	}
	for p, s := range specs {
		if s != pcache.SpecNone {
			t.Errorf("page %d of a file that fits rode in as spec %d, want SpecNone", p, s)
		}
	}
}

// TestHeadCarryFromADryPool: an open that finds the pool dry reclaims frames
// for its head from the closed files' clean pages, up to a guess's budget, and
// from nothing else — oldest retirement first and slot order within a file,
// never a dirty page, never an open file's page, and without a write-back.
// With one free frame left it reclaims nothing and carries one page.
func TestHeadCarryFromADryPool(t *testing.T) {
	opt := defaultOpt() // 64 frames
	ps := opt.PageSize
	span := maxHostIO / ps
	frames := opt.BufferCacheBytes / ps

	t.Run("dry", func(t *testing.T) {
		const mixed, older, newer = 3, 4, 8 // closed files, oldest retirement first
		openPages := frames - mixed - older - newer
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		fs.cleaner.busy.Store(true) // no pass may pre-evict the dirty page
		h.write(t, "/mixed", pattern(int(mixed*ps), 1))
		h.write(t, "/older", pattern(int(older*ps), 2))
		h.write(t, "/newer", pattern(int(newer*ps), 3))
		h.write(t, "/open", pattern(int(openPages*ps), 4))
		want := pattern(int(4*span*ps), 5)
		h.write(t, "/head", want)
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/mixed", O_RDWR)
			if err != nil {
				return err
			}
			gwrite(t, fs, b, fd, pattern(int(ps), 9), 0) // page 0 dirty, pages 1-2 clean
			if err := fs.Close(b, fd); err != nil {
				return err
			}
			for _, p := range []string{"/older", "/newer"} {
				if fd, err = fs.Open(b, p, O_RDONLY); err != nil {
					return err
				}
				if err := fs.Close(b, fd); err != nil {
					return err
				}
			}
			open, err := fs.Open(b, "/open", O_RDONLY)
			if err != nil {
				return err
			}
			gread(t, fs, b, open, openPages*ps)
			clean := fs.ft.closedCleanPages()
			if free := fs.cache.FreeFrames(); free != 0 || clean != mixed-1+older+newer {
				t.Fatalf("%d frames free and %d closed clean pages, want a dry pool and %d", free, clean, mixed-1+older+newer)
			}
			budget := min(span, clean/2) // a guess's budget in a dry pool
			reclaimed, writes := fs.cache.Reclaimed(), h.server.Requests(rpc.OpWritePages)

			fd, err = fs.Open(b, "/head", O_RDONLY)
			if err != nil {
				return err
			}
			if got := fs.cache.Reclaimed() - reclaimed; got != budget || fs.CacheStats().SpecReclaimed != budget {
				t.Errorf("the open reclaimed %d pages (%d for speculation), want a guess's budget, %d", got, fs.CacheStats().SpecReclaimed, budget)
			}
			if got := h.server.Requests(rpc.OpWritePages) - writes; got != 0 {
				t.Errorf("the open sent %d writes", got)
			}
			f := fs.ft.fds[fd]
			for p := int64(0); p < budget; p++ {
				if s := specOf(fs, f.fc, p); s != pcache.SpecPending {
					t.Errorf("head page %d: spec %d, want pending", p, s)
				}
			}
			// Oldest retirement first, slot order within a file: /mixed's clean
			// pages 1-2, then /older's 4, then /newer's page 0.
			for path, wantResident := range map[string]int64{"/mixed": 1, "/older": 0, "/newer": newer - (budget - (mixed - 1) - older), "/open": openPages, "/head": budget} {
				if got := fs.ResidentPages(path); got != wantResident {
					t.Errorf("%s holds %d pages after the open, want %d", path, got, wantResident)
				}
			}
			if fp, _ := fs.ft.cacheOf("/mixed").tree.LookupLeaf(0); fp == nil || !fp.Ready() || !fs.cache.Frame(fp.Frame()).Dirty.Load() {
				t.Error("the closed file's dirty page is gone or clean")
			}
			got := make([]byte, len(want))
			if n, err := fs.Read(b, fd, got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Errorf("gread of the head's file: n=%d err=%v, or the bytes are not the file's", n, err)
			}
			if err := fs.Close(b, open); err != nil {
				return err
			}
			return fs.Close(b, fd)
		})
		h.checkDirtyCounts(t)
	})

	t.Run("one free frame", func(t *testing.T) {
		const closed = 8
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		fs.cleaner.busy.Store(true)
		h.write(t, "/closed", pattern(int(closed*ps), 1))
		h.write(t, "/open", pattern(int((frames-closed-1)*ps), 2))
		h.write(t, "/head", pattern(int(4*span*ps), 3))
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/closed", O_RDONLY)
			if err != nil {
				return err
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
			open, err := fs.Open(b, "/open", O_RDONLY)
			if err != nil {
				return err
			}
			gread(t, fs, b, open, (frames-closed-1)*ps)
			if free := fs.cache.FreeFrames(); free != 1 {
				t.Fatalf("%d frames free, want 1", free)
			}
			reclaimed := fs.cache.Reclaimed()
			if fd, err = fs.Open(b, "/head", O_RDONLY); err != nil {
				return err
			}
			if got := fs.cache.Reclaimed() - reclaimed; got != 0 || fs.CacheStats().SpecReclaimed != 0 {
				t.Errorf("an open with a free frame reclaimed %d pages", got)
			}
			if got, closedHeld := fs.ResidentPages("/head"), fs.ResidentPages("/closed"); got != 1 || closedHeld != closed {
				t.Errorf("the open carried %d pages and the closed file holds %d; want 1 and %d", got, closedHeld, closed)
			}
			if err := fs.Close(b, open); err != nil {
				return err
			}
			return fs.Close(b, fd)
		})
	})
}

// TestHeadCarryEIO: the head's read fails, and the open still succeeds with no
// counts — nothing resident or filled, nothing issued or pending, the opener's
// slot untouched — and the pool as it was, but for the pages a dry pool
// reclaimed for the offer, which are free now. The first gread meets the
// host's error and a retry reads the file.
func TestHeadCarryEIO(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	span := maxHostIO / ps
	frames := opt.BufferCacheBytes / ps
	for _, dry := range []bool{false, true} {
		name := "free pool"
		if dry {
			name = "dry pool"
		}
		t.Run(name, func(t *testing.T) {
			h := newFaultHarness(t, opt, faults.Config{Seed: 3, HostReadEIOProb: 1}, 1, 1)
			fs := h.fss[0]
			h.inj.SetEnabled(false)
			want := pattern(int(4*span*ps), 6)
			h.write(t, "/e", want)
			h.write(t, "/closed", pattern(int(frames*ps), 7))
			h.run(t, 0, func(b *gpu.Block) error {
				if dry {
					fd, err := fs.Open(b, "/closed", O_RDONLY)
					if err != nil {
						return err
					}
					gread(t, fs, b, fd, frames*ps)
					if err := fs.Close(b, fd); err != nil {
						return err
					}
				}
				before, issued, filled := poolOf(t, fs.cache), fs.CacheStats().PrefetchIssued, fs.openFilled.Load()
				pending, specReclaimed := fs.specPending.Load(), fs.CacheStats().SpecReclaimed

				h.inj.SetEnabled(true)
				fd, err := fs.Open(b, "/e", O_RDONLY)
				h.inj.SetEnabled(false)
				if err != nil {
					t.Fatalf("gopen under a failing head read: %v", err)
				}
				if h.inj.Injected(faults.HostReadEIO) == 0 {
					t.Fatal("the head's read did not fail")
				}
				f := fs.ft.fds[fd]
				if fs.ResidentPages("/e") != 0 || fs.openFilled.Load() != filled || fs.CacheStats().PrefetchIssued != issued ||
					fs.specPending.Load() != pending || f.stream(b.Idx) != nil && f.stream(b.Idx).seen {
					t.Errorf("the failed head left %d pages resident, %d filled, %d issued, %d pending or a primed slot",
						fs.ResidentPages("/e"), fs.openFilled.Load()-filled, fs.CacheStats().PrefetchIssued-issued, fs.specPending.Load()-pending)
				}
				after := poolOf(t, fs.cache)
				reclaimed := fs.CacheStats().SpecReclaimed - specReclaimed
				if dry {
					// The reclaimed frames are free now; allocations are as they were.
					if reclaimed != min(span, maxBatchFetch) || int64(len(after.Free)) != reclaimed ||
						after.Allocs != before.Allocs || after.Reclaimed != before.Reclaimed+reclaimed {
						t.Errorf("the dry pool's open reclaimed %d pages and left\n%+v\nwhere it found\n%+v", reclaimed, after, before)
					}
				} else if reclaimed != 0 || !reflect.DeepEqual(after, before) {
					t.Errorf("the failed head left the pool\n%+v\nwhere it found\n%+v", after, before)
				}

				buf := make([]byte, ps)
				h.inj.SetEnabled(true)
				if _, err := fs.Read(b, fd, buf, 0); !errors.Is(err, hostfs.ErrIO) {
					t.Errorf("first gread: %v, want the host's I/O error", err)
				}
				h.inj.SetEnabled(false)
				if n, err := fs.Read(b, fd, buf, 0); err != nil || int64(n) != ps || !bytes.Equal(buf, want[:ps]) {
					t.Errorf("retried gread: n=%d err=%v, or the bytes are not the file's", n, err)
				}
				return fs.Close(b, fd)
			})
		})
	}
}
