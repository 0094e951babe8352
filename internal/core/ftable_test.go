package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
	"gpufs/internal/simtime/simtest"
	"gpufs/internal/wrapfs"
)

// check asserts the invariants every ftable method keeps: each table's two
// indexes agree, the closed list is what its maps hold, a cache has a
// retained descriptor exactly while retired, and no file is in both tables.
func (t *ftable) check(tb testing.TB) {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	live := 0
	for fd, f := range t.fds {
		if f == nil {
			continue
		}
		live++
		if got, ok := t.byPath[f.path]; !ok || got != fd {
			tb.Errorf("open entry %q at descriptor %d, byPath says %d (%v)", f.path, fd, got, ok)
		}
		if f.admitted && (f.fc == nil || f.refs < 1 || f.err != nil) {
			tb.Errorf("admitted entry %q: cache %v refs %d err %v", f.path, f.fc != nil, f.refs, f.err)
		}
		if f.fc != nil && (f.fc.keepFd != 0 || t.closed[f.fc.ino] == f.fc) {
			tb.Errorf("open entry %q: its cache is still retired", f.path)
		}
	}
	if live != len(t.byPath) {
		tb.Errorf("%d open entries, %d pathnames indexed", live, len(t.byPath))
	}
	n := 0
	prev := &t.ring
	for fc := t.ring.newer; fc != &t.ring; prev, fc = fc, fc.newer {
		n++
		if fc.older != prev {
			tb.Errorf("closed list: %q does not point back at its elder", fc.retiredAs)
		}
		if fc.keepFd == 0 || t.closed[fc.ino] != fc || t.closedByPath[fc.retiredAs] != fc {
			tb.Errorf("retired %q (inode %d): descriptor %d, indexes disagree", fc.retiredAs, fc.ino, fc.keepFd)
		}
	}
	if prev != t.ring.older {
		tb.Error("closed list: the sentinel does not point back at the newest")
	}
	if n != len(t.closed) || n != len(t.closedByPath) {
		tb.Errorf("closed list holds %d, indexed by inode %d, by pathname %d", n, len(t.closed), len(t.closedByPath))
	}
}

// retiredOrder lists the closed table's pathnames as victims reports them.
func retiredOrder(t *ftable) []string {
	var out []string
	for _, v := range t.victims() {
		if v.class == 0 {
			out = append(out, v.fc.retiredAs)
		}
	}
	return out
}

// stubCache is a cache with one resident frame, enough for the table.
func stubCache(path string, ino int64) *fileCache {
	fc := &fileCache{ino: ino, path: path}
	fc.frames.Store(1)
	return fc
}

// openClose takes path through a whole open and final close on t, leaving fc
// retired with descriptor hostFd.
func openClose(tb testing.TB, t *ftable, path string, fc *fileCache, hostFd int64) {
	tb.Helper()
	fd, f, _, err := t.enter(path, O_RDONLY, false)
	if f == nil || err != nil {
		tb.Fatalf("enter(%q) = %d, %v, %v; want a pending entry", path, fd, f, err)
	}
	t.complete(fd, f, fc, hostFd)
	t.admit(fd, f)
	if _, last, _, err := t.release(fd); !last || err != nil {
		tb.Fatalf("release(%q) = last %v, %v", path, last, err)
	}
}

// TestFTableTransitionTable drives every move of an entry from every state it
// can be in: the legal move lands in its target state, a move that a racing
// block or a stray descriptor can legitimately attempt from the wrong state
// is turned away with no effect, one that only a bug in the open sequence can
// attempt panics, and the indexes agree after each.
func TestFTableTransitionTable(t *testing.T) {
	const (
		absent    = "absent"
		pending   = "pending"
		completed = "completed"
		open1     = "open(1)"
		open2     = "open(2)"
		retired   = "retired"

		path   = "/f"
		ino    = 7
		hostFd = 11
	)
	type world struct {
		t  *ftable
		fd int
		f  *file
		fc *fileCache
	}
	// build puts the entry for path in state st and says what it built.
	build := func(t *testing.T, st string) *world {
		w := &world{t: newFTable(), fd: 0, fc: stubCache(path, ino)}
		if st == absent {
			return w
		}
		w.fd, w.f, _, _ = w.t.enter(path, O_RDONLY, false)
		if st == pending {
			return w
		}
		w.t.complete(w.fd, w.f, w.fc, hostFd)
		if st == completed {
			return w
		}
		w.t.admit(w.fd, w.f)
		switch st {
		case open2:
			w.t.enter(path, O_RDONLY, false)
		case retired:
			w.t.release(w.fd)
		}
		return w
	}
	// state reads the entry's state back off the table.
	state := func(w *world) string {
		w.t.mu.Lock()
		defer w.t.mu.Unlock()
		fd, open := w.t.byPath[path]
		switch {
		case open && w.t.closed[ino] == w.fc:
			return "open and retired"
		case !open && w.t.closed[ino] == w.fc:
			return retired
		case !open:
			return absent
		}
		switch f := w.t.fds[fd]; {
		case f.fc == nil:
			return pending
		case !f.admitted:
			return completed
		default:
			return fmt.Sprintf("open(%d)", f.refs)
		}
	}

	const (
		turnedAway = "turned away" // refused, state unchanged
		panics     = "panics"
	)
	stateNames := []string{absent, pending, completed, open1, open2, retired}
	ops := []struct {
		name string
		run  func(w *world) (refused bool)
		// to maps each state the move is legal from to where it lands;
		// away lists the states it is refused from. Anything else panics.
		to   map[string]string
		away []string
	}{
		{"enter", func(w *world) bool {
			fd, f, cand, err := w.t.enter(path, O_RDONLY, false)
			if err != nil || fd < 0 {
				t.Errorf("enter = %d, %v", fd, err)
			}
			if f != nil && (cand != nil) != (w.fc.keepFd != 0) {
				t.Errorf("enter: candidate %v while the cache's retained descriptor is %d", cand != nil, w.fc.keepFd)
			}
			return false
		}, map[string]string{absent: pending, open1: open2, open2: "open(3)", retired: "open and retired"}, nil},
		{"enter/ahead", func(w *world) bool {
			fd, f, _, _ := w.t.enter(path, O_RDONLY, true)
			return f == nil && fd == -1
		}, map[string]string{absent: pending}, []string{pending, completed, open1, open2, retired}},
		{"complete", func(w *world) bool { w.t.complete(w.fd, w.f, w.fc, hostFd); return false },
			map[string]string{pending: completed}, nil},
		{"admit", func(w *world) bool { w.t.admit(w.fd, w.f); return false },
			map[string]string{completed: open1}, nil},
		{"fail", func(w *world) bool { w.t.fail(w.fd, w.f, errors.New("boom")); return false },
			map[string]string{pending: absent}, nil},
		{"lookup", func(w *world) bool { _, err := w.t.lookup(w.fd); return errors.Is(err, ErrBadFD) },
			map[string]string{open1: open1, open2: open2}, []string{absent, pending, completed, retired}},
		{"release", func(w *world) bool { _, _, _, err := w.t.release(w.fd); return errors.Is(err, ErrBadFD) },
			map[string]string{open1: retired, open2: open1}, []string{absent, pending, completed, retired}},
		{"unlink", func(w *world) bool {
			r := w.t.unlink(path)
			if r.fc != nil && (r.fc != w.fc || r.hostFd != hostFd || w.fc.keepFd != 0) {
				t.Errorf("unlink handed back %+v, cache still holds descriptor %d", r, w.fc.keepFd)
			}
			return r.fc == nil
		}, map[string]string{retired: absent}, []string{absent, pending, completed, open1, open2}},
		{"takeIno", func(w *world) bool {
			r := w.t.takeIno(ino)
			if r.fc != nil && (r.fc != w.fc || r.hostFd != hostFd) {
				t.Errorf("takeIno handed back %+v", r)
			}
			return r.fc == nil
		}, map[string]string{retired: absent}, []string{absent, pending, completed, open1, open2}},
		{"take", func(w *world) bool {
			return w.t.take(w.fc, &file{path: path, flags: O_RDONLY}).fc == nil
		}, map[string]string{retired: absent}, []string{absent, pending, completed, open1, open2}},
		{"take/otherFlags", func(w *world) bool {
			return w.t.take(w.fc, &file{path: path, flags: O_RDWR}).fc == nil
		}, nil, stateNames},
	}

	for _, st := range stateNames {
		for _, op := range ops {
			t.Run(st+"/"+op.name, func(t *testing.T) {
				want, legal := op.to[st]
				if !legal {
					want = panics
					for _, s := range op.away {
						if s == st {
							want = turnedAway
						}
					}
				}
				if op.name == "enter" && (st == pending || st == completed) {
					// Joining an open in flight waits for it: the waiter
					// tests below.
					t.Skip("waits")
				}
				w := build(t, st)
				if w.f == nil {
					// No open sequence in hand: the opener's moves have
					// nothing to be called with.
					w.f = &file{path: path}
				}
				refused, panicked := false, false
				func() {
					defer func() { panicked = recover() != nil }()
					refused = op.run(w)
				}()
				switch {
				case want == panics:
					if !panicked {
						t.Fatalf("from %s: no panic, state now %s", st, state(w))
					}
				case panicked:
					t.Fatalf("from %s: panicked, want %s", st, want)
				case want == turnedAway:
					if !refused {
						t.Errorf("from %s: not refused", st)
					}
					want = st
				case refused:
					t.Errorf("from %s: refused, want %s", st, want)
				}
				if want != panics {
					if got := state(w); got != want {
						t.Errorf("from %s: state now %s, want %s", st, got, want)
					}
				}
				w.t.check(t)
			})
		}
	}
}

// TestFTableReleaseDisplaces: a cache that retires takes the place of
// whatever the closed table held under its inode or its pathname, and the
// displaced caches come back to the caller with their descriptors — to be
// discarded once the table lock is dropped — while a transient file retires
// nowhere.
func TestFTableReleaseDisplaces(t *testing.T) {
	tab := newFTable()
	sameIno, samePath := stubCache("/hardlink", 5), stubCache("/f", 6)
	openClose(t, tab, "/hardlink", sameIno, 21)
	openClose(t, tab, "/f", samePath, 22)
	openClose(t, tab, "/other", stubCache("/other", 9), 23)

	fd, f, cand, _ := tab.enter("/f", O_RDWR, false)
	if cand != nil {
		t.Fatal("a cache retired under other flags offered as the fast-reopen candidate")
	}
	fresh := stubCache("/f", 5) // the pathname now names the hard link's inode
	tab.complete(fd, f, fresh, 24)
	tab.admit(fd, f)
	_, last, displaced, err := tab.release(fd)
	if !last || err != nil {
		t.Fatalf("release = last %v, %v", last, err)
	}
	want := []retiree{{sameIno, 21}, {samePath, 22}}
	if len(displaced) != 2 || displaced[0] != want[0] || displaced[1] != want[1] {
		t.Errorf("displaced %+v, want %+v", displaced, want)
	}
	if got, want := fmt.Sprint(retiredOrder(tab)), "[/other /f]"; got != want {
		t.Errorf("closed table holds %s, want %s", got, want)
	}
	tab.check(t)

	fd, f, _, _ = tab.enter("/tmp", O_RDWR|O_NOSYNC, false)
	tab.complete(fd, f, stubCache("/tmp", 12), 25)
	tab.admit(fd, f)
	if _, last, discard, _ := tab.release(fd); !last || len(discard) != 1 || discard[0].hostFd != 25 {
		t.Errorf("transient release = last %v, discard %+v; want its own cache and descriptor 25", last, discard)
	}
	if tab.cacheOf("/tmp") != nil {
		t.Error("a transient file's cache reached the closed table")
	}
	tab.check(t)

	open, retired := tab.reset()
	if len(open) != 1 || open[0] != nil || len(retired) != 2 || retired[0].hostFd != 23 || retired[1].hostFd != 24 {
		t.Errorf("reset handed back %d open, retired %+v; want one free slot and descriptors 23, 24 in that order", len(open), retired)
	}
	tab.check(t)
}

// TestVictimsInRetirementOrder: paging takes closed files oldest retirement
// first, every time it asks — not in the order of a map walk, an inode sort or
// a pathname sort. A fast reopen that fails leaves the order alone; one that
// succeeds moves the file to the newest end at its next retirement.
func TestVictimsInRetirementOrder(t *testing.T) {
	tab := newFTable()
	var want []string
	for i := 0; i < 10; i++ {
		// Inodes and pathnames both run against retirement order.
		path := fmt.Sprintf("/f%02d", (i*7+3)%10)
		openClose(t, tab, path, stubCache(path, int64(100-(i*3)%10)), int64(30+i))
		want = append(want, path)
	}
	same := func(when string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if got := retiredOrder(tab); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, call %d: victims in order %v, want retirement order %v", when, i, got, want)
			}
		}
		tab.check(t)
	}
	same("after ten retirements")

	// A fast reopen whose write intent is refused: the candidate never left.
	fd, f, cand, _ := tab.enter(want[3], O_RDONLY, false)
	if cand == nil || cand.retiredAs != want[3] {
		t.Fatalf("no fast-reopen candidate for %s", want[3])
	}
	tab.fail(fd, f, &wrapfs.ErrBusy{})
	same("after a failed fast reopen")

	// One that goes through, then closes again.
	fd, f, cand, _ = tab.enter(want[3], O_RDONLY, false)
	r := tab.take(cand, f)
	if r.fc == nil {
		t.Fatal("the candidate left the closed table on its own")
	}
	tab.complete(fd, f, r.fc, r.hostFd)
	tab.admit(fd, f)
	tab.release(fd)
	want = append(append(want[:3:3], want[4:]...), want[3])
	same("after a fast reopen and its gclose")

	// A cache with nothing resident is no victim; it keeps its place.
	tab.cacheOf(want[0]).frames.Store(0)
	moved := want
	want = want[1:]
	same("with the oldest drained")
	tab.cacheOf(moved[0]).frames.Store(1)
	want = moved
	same("with the oldest refilled")
}

// TestWaiterSharesAFailedReopen: a reopen is a pending entry like any other.
// Nobody can join it, or use its descriptor, before it is admitted; if the
// opener's write intent is refused (another GPU holds the writer), the blocks
// that coalesced onto it are told so, and are not left holding a descriptor
// whose slot the failure emptied.
func TestWaiterSharesAFailedReopen(t *testing.T) {
	busy := &wrapfs.ErrBusy{Ino: 7, Writer: 1}
	shared := 0
	for round := 0; round < 200; round++ {
		tab := newFTable()
		openClose(t, tab, "/w", stubCache("/w", 7), 11)
		tab.cacheOf("/w").lastFlags = O_RDWR

		fd, f, cand, _ := tab.enter("/w", O_RDWR, false)
		if cand == nil {
			t.Fatal("no fast-reopen candidate")
		}
		select {
		case <-f.ready:
			t.Fatal("a reopen entered the open table with its waiters already admitted")
		default:
		}
		if _, err := tab.lookup(fd); !errors.Is(err, ErrBadFD) {
			t.Fatalf("a pending reopen's descriptor resolves: %v", err)
		}

		started := make(chan struct{})
		type joined struct {
			fd  int
			f   *file
			err error
		}
		done := make(chan joined)
		go func() {
			close(started)
			fd, f, _, err := tab.enter("/w", O_RDWR, false)
			done <- joined{fd, f, err}
		}()
		<-started
		for i := 0; i < round%8; i++ {
			runtime.Gosched() // let the waiter reach the entry, some rounds
		}
		tab.fail(fd, f, busy)

		switch j := <-done; {
		case j.err != nil:
			// It waited on the reopen and shares its failure.
			if !errors.Is(j.err, busy) || j.f != nil || j.fd != -1 {
				t.Fatalf("waiter got (%d, %v, %v), want the opener's error", j.fd, j.f, j.err)
			}
			shared++
		case j.f != nil:
			// It arrived after the failure and is an opener itself.
			tab.fail(j.fd, j.f, busy)
		default:
			t.Fatalf("waiter was handed descriptor %d of an open that failed", j.fd)
		}
		if got := retiredOrder(tab); len(got) != 1 || got[0] != "/w" {
			t.Fatalf("closed table after the failed reopen: %v", got)
		}
		tab.check(t)
	}
	if shared == 0 {
		t.Error("no waiter ever reached the pending entry before it failed")
	}
}

// TestFailedReopenLeavesTheFileRetired: the failure end to end. GPU 0 has /w
// retired for writing, GPU 1 becomes its single writer; every block of GPU 0
// that reopens it fails with ErrBusy — none is handed a descriptor, none trips
// ErrBadFD — and the cache stays where it was for the reopen that works once
// GPU 1 lets go.
func TestFailedReopenLeavesTheFileRetired(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 2, opt)
	h.write(t, "/w", pattern(4*int(opt.PageSize), 1))
	fs0, fs1 := h.fss[0], h.fss[1]

	buf := make([]byte, 4*opt.PageSize)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs0.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs0.Read(b, fd, buf, 0); err != nil {
			return err
		}
		return fs0.Close(b, fd)
	})
	var fd1 int
	h.run(t, 1, func(b *gpu.Block) (err error) {
		fd1, err = fs1.Open(b, "/w", O_RDWR)
		return err
	})

	before := fs0.Snapshot()
	h.runBlocks(t, 0, 16, func(b *gpu.Block) error {
		fd, err := fs0.Open(b, "/w", O_RDWR)
		var busy *wrapfs.ErrBusy
		if !errors.As(err, &busy) {
			if err == nil {
				err = fs0.Close(b, fd)
			}
			t.Errorf("block %d: reopen against GPU 1's writer: descriptor %d, %v", b.Idx, fd, err)
		}
		return nil
	})
	if got := fs0.ResidentPages("/w"); got != 4 {
		t.Errorf("%d pages of /w resident after the failed reopens, want 4", got)
	}
	if after := fs0.Snapshot(); after.HostOpens != before.HostOpens || after.ClosedTableReuses != before.ClosedTableReuses {
		t.Errorf("failed reopens cost host opens %d -> %d, reuses %d -> %d",
			before.HostOpens, after.HostOpens, before.ClosedTableReuses, after.ClosedTableReuses)
	}
	fs0.ft.check(t)

	h.run(t, 1, func(b *gpu.Block) error { return fs1.Close(b, fd1) })
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs0.Open(b, "/w", O_RDWR)
		if err != nil {
			return err
		}
		return fs0.Close(b, fd)
	})
	if after := fs0.Snapshot(); after.HostOpens != before.HostOpens || after.ClosedTableReuses != before.ClosedTableReuses+1 {
		t.Errorf("reopen once the writer let go: host opens %d -> %d, reuses %d -> %d",
			before.HostOpens, after.HostOpens, before.ClosedTableReuses, after.ClosedTableReuses)
	}
	fs0.ft.check(t)
}

// TestScanRepeatsAtOneP is reopen_scan at tier-1 size: one block scans 32
// files through a cache a quarter their size, twice. Which closed file gives
// up its frames first decides what the second pass still finds, so two fresh
// systems end at the same virtual tick with the same pages reclaimed only if
// that choice is a function of the run, not of a map's iteration order.
func TestScanRepeatsAtOneP(t *testing.T) {
	simtest.OneP(t)
	const files, filePages = 32, 8
	opt := defaultOpt()
	opt.BufferCacheBytes = files * filePages / 4 * opt.PageSize
	scan := func() (simtime.Time, int64) {
		h := newHarness(t, 1, opt)
		fs := h.fss[0]
		for i := 0; i < files; i++ {
			h.write(t, fmt.Sprintf("/scan%02d", i), pattern(filePages*int(opt.PageSize), byte(i)))
		}
		buf := make([]byte, opt.PageSize)
		end, err := h.devs[0].Launch(0, 1, 64, func(b *gpu.Block) error {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < files; i++ {
					fd, err := fs.Open(b, fmt.Sprintf("/scan%02d", i), O_RDONLY)
					if err != nil {
						return err
					}
					for p := int64(0); p < filePages; p++ {
						if _, err := fs.Read(b, fd, buf, p*opt.PageSize); err != nil {
							return err
						}
					}
					if err := fs.Close(b, fd); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		fs.ft.check(t)
		return end, fs.Snapshot().PagesReclaimed
	}
	end1, reclaimed1 := scan()
	end2, reclaimed2 := scan()
	if reclaimed1 == 0 {
		t.Fatal("the scan evicted nothing: the cache holds the corpus")
	}
	if end1 != end2 || reclaimed1 != reclaimed2 {
		t.Errorf("two fresh scans: ended at %v with %d pages reclaimed, then %v with %d",
			end1, reclaimed1, end2, reclaimed2)
	}
}
