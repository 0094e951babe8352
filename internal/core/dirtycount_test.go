package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"gpufs/internal/core/radix"
	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/simtime"
)

// The dirty-page counts and leaf masks of page.go (setDirty) and the cleaner
// pass that reads them: exact at quiescence, and a pass whose host cost
// follows the dirty files and pages, not the cached ones.

// checkDirtyCounts asserts, on a quiescent fs, that every fileCache's dirty
// count is the number of its resident frames with Dirty set and that the FS
// total is their sum — so no cache that left the tables took a count with it.
// The clean counts are held to the same: a cache's is its resident frames
// less its dirty ones, flagged exactly while it is retired, and the closed
// table's total is the retired caches' sum. Each leaf's dirty mask has a
// Ready slot's bit set exactly while its frame is dirty, and no other bit.
func checkDirtyCounts(t *testing.T, fs *FS) {
	t.Helper()
	retired := make(map[*fileCache]bool)
	fs.ft.each(func(fc *fileCache, _ string, _ int, f *file) { retired[fc] = f == nil })

	var sum, closedClean int64
	for fc, isRetired := range retired {
		var resident, dirty int64
		fc.tree.ForEachReadyPage(func(_ uint64, p *radix.FPage) bool {
			resident++
			if fs.cache.Frame(p.Frame()).Dirty.Load() {
				dirty++
			}
			return true
		})
		if got := fc.dirty.Load(); got != dirty {
			t.Errorf("gpu%d %s: dirty count %d, but %d resident frames are dirty", fs.gpuID, fc.path, got, dirty)
		}
		sum += dirty
		checkDirtyHints(t, fs, fc)
		if w := fc.clean.Load(); w>>1 != resident-dirty || (w&1 != 0) != isRetired {
			t.Errorf("gpu%d %s: clean count %d (retired bit %d), but %d resident frames are clean (retired %v)",
				fs.gpuID, fc.path, w>>1, w&1, resident-dirty, isRetired)
		}
		if isRetired {
			closedClean += resident - dirty
		}
	}
	if got := fs.dirtyPages.Load(); got != sum {
		t.Errorf("gpu%d: FS dirty total %d, its files hold %d dirty frames", fs.gpuID, got, sum)
	}
	if got := fs.ft.closedClean.Load(); got != closedClean {
		t.Errorf("gpu%d: closed table's clean total %d, its caches hold %d clean frames", fs.gpuID, got, closedClean)
	}
}

// checkDirtyHints asserts, on a quiescent fs, that fc's leaves mark exactly
// their dirty Ready pages: the cleaner visits only the marked ones.
func checkDirtyHints(t *testing.T, fs *FS, fc *fileCache) {
	t.Helper()
	g := fc.tree.Pin()
	defer g.Exit()
	for _, leaf := range fc.tree.OldestLeaves(1 << 20) {
		mask := leaf.DirtyHint()
		for i := 0; i < 64; i++ {
			p := leaf.Page(i)
			want := p.Ready() && fs.cache.Frame(p.Frame()).Dirty.Load()
			if got := mask>>i&1 != 0; got != want {
				t.Errorf("gpu%d %s: page %d's dirty hint is %v, want %v (ready %v)",
					fs.gpuID, fc.path, leaf.Base()+uint64(i), got, want, p.Ready())
			}
		}
	}
}

// checkDirtyCounts runs the invariant on every GPU of the harness.
func (h *harness) checkDirtyCounts(t *testing.T) {
	t.Helper()
	for _, fs := range h.fss {
		checkDirtyCounts(t, fs)
	}
}

// TestDirtyCountFollowsTheFlag drives every way Frame.Dirty changes — gwrite,
// a mapping's MarkDirty, write-back, a failed write-back, and a dirty frame
// leaving by truncate, unlink, invalidation and restart or arriving by
// checkpoint restore — and checks the counts and the leaves' dirty masks
// after each.
func TestDirtyCountFollowsTheFlag(t *testing.T) {
	opt := defaultOpt()
	ps := int(opt.PageSize)
	h := newFaultHarness(t, opt, faults.Config{Seed: 1, HostWriteEIOProb: 1.0}, 1, 1)
	fs := h.fss[0]
	h.inj.SetEnabled(false)
	h.write(t, "/d", make([]byte, 6*ps))
	h.write(t, "/u", make([]byte, 2*ps))

	want := func(step string, n int64) {
		t.Helper()
		checkDirtyCounts(t, fs)
		if got := fs.dirtyPages.Load(); got != n {
			t.Fatalf("%s: %d dirty pages counted, want %d", step, got, n)
		}
	}
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/d", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, pattern(4*ps, 1), 0); err != nil {
			return err
		}
		want("gwrite of four pages", 4)
		if _, err := fs.Write(b, fd, pattern(2*ps, 2), 0); err != nil {
			return err
		}
		want("gwrite over dirty pages", 4)

		m, err := fs.Mmap(b, fd, int64(4*ps), int64(ps))
		if err != nil {
			return err
		}
		m.MarkDirty()
		m.MarkDirty()
		want("MarkDirty through a mapping, twice", 5)
		if err := m.Msync(b); err != nil {
			return err
		}
		want("gmsync", 4)
		if err := m.Munmap(b); err != nil {
			return err
		}

		h.inj.SetEnabled(true) // every write-back fails with EIO
		if err := fs.Fsync(b, fd); err == nil {
			t.Error("gfsync succeeded with every host write failing")
		}
		h.inj.SetEnabled(false)
		want("failed write-back", 4)

		if err := fs.FsyncRange(b, fd, 0, int64(ps)); err != nil {
			return err
		}
		want("gfsync of one page", 3)
		if err := fs.Ftruncate(b, fd, int64(2*ps)); err != nil {
			return err
		}
		want("gftruncate dropping two dirty pages", 1)
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		want("gclose keeps the page dirty", 1)

		// Invalidation: the host copy changes while the file is closed, so
		// the next gopen discards the cache, dirty page and all.
		h.write(t, "/d", pattern(3*ps, 3))
		if fd, err = fs.Open(b, "/d", O_RDWR); err != nil {
			return err
		}
		want("invalidation at gopen", 0)
		if _, err := fs.Write(b, fd, pattern(ps, 4), 0); err != nil {
			return err
		}

		ufd, err := fs.Open(b, "/u", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, ufd, pattern(2*ps, 5), 0); err != nil {
			return err
		}
		if err := fs.Close(b, ufd); err != nil {
			return err
		}
		want("a second file", 3)
		if err := fs.Unlink(b, "/u"); err != nil {
			return err
		}
		want("gunlink of a closed dirty file", 1)
		return nil
	})

	// Checkpoint restore: the image's dirty page arrives dirty on the new FS.
	img, err := fs.WalkCheckpoint(0).Commit()
	if err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, 1, opt)
	h2.write(t, "/d", pattern(3*ps, 3))
	h2.run(t, 0, func(b *gpu.Block) error { return h2.fss[0].RestoreImage(b, img) })
	h2.checkDirtyCounts(t)
	if got := h2.fss[0].dirtyPages.Load(); got != 1 {
		t.Fatalf("restore: %d dirty pages counted, want 1", got)
	}

	h.run(t, 0, func(b *gpu.Block) error {
		fs.Restart(b)
		return nil
	})
	want("restart", 0)
}

// cleanCorpus caches files one-page read-only files on a cleaner-equipped FS,
// all closed, and leaves the free pool under the low watermark so that every
// maybeClean kicks a pass. With dirtyPages > 0 it also leaves that many dirty
// pages in one open file, "/dirty". Every file comes in with its open and the
// dirty pages are overwritten in place, so the set-up takes no demand fault:
// nothing kicks the cleaner before the caller does.
func cleanCorpus(t testing.TB, files, dirtyPages int) (*harness, *FS) {
	t.Helper()
	opt := defaultOpt()
	opt.PageSize = 4 << 10
	opt.BufferCacheBytes = int64(files+dirtyPages+1) * opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	page := pattern(int(opt.PageSize), 9)
	for i := 0; i < files; i++ {
		h.write(t, fmt.Sprintf("/clean-%04d", i), page)
	}
	h.write(t, "/dirty", make([]byte, dirtyPages*int(opt.PageSize)))
	_, err := h.devs[0].Launch(0, 1, 64, func(b *gpu.Block) error {
		buf := make([]byte, opt.PageSize)
		for i := 0; i < files; i++ {
			fd, err := fs.Open(b, fmt.Sprintf("/clean-%04d", i), O_RDONLY)
			if err != nil {
				return err
			}
			if _, err := fs.Read(b, fd, buf, 0); err != nil {
				return err
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
		}
		if dirtyPages == 0 {
			return nil
		}
		fd, err := fs.Open(b, "/dirty", O_RDWR)
		if err != nil {
			return err
		}
		_, err = fs.Write(b, fd, pattern(dirtyPages*int(opt.PageSize), 6), 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if free := fs.cache.FreeFrames(); free >= fs.cleaner.low {
		t.Fatalf("set-up left %d free frames, want < low watermark %d", free, fs.cleaner.low)
	}
	if cs := fs.CacheStats(); cs.CleanerKicks != 0 || cs.OpenFilled != int64(files+dirtyPages) {
		t.Fatalf("set-up kicked the cleaner %d times and carried %d pages in with opens, want none and %d",
			cs.CleanerKicks, cs.OpenFilled, files+dirtyPages)
	}
	return h, fs
}

// TestCleanerPassSkipsCleanCorpus is the guardrail of ISSUE 17's cleaner
// gain. Walking a file starts by snapshotting its leaf list (an allocation),
// and listing the victims allocates too: a kicked pass that allocates nothing
// walked no file, took no TryEvict and listed nothing, however many files are
// cached. At the parent the same pass made more than one allocation per file.
func TestCleanerPassSkipsCleanCorpus(t *testing.T) {
	for _, files := range []int{64, 1024} {
		_, fs := cleanCorpus(t, files, 0)
		before := fs.CacheStats()
		allocs := testing.AllocsPerRun(10, func() { fs.maybeClean(0) })
		after := fs.CacheStats()
		if after.CleanerKicks-before.CleanerKicks != 11 { // AllocsPerRun warms up once
			t.Fatalf("%d files: %d kicks in 11 calls under the low watermark", files, after.CleanerKicks-before.CleanerKicks)
		}
		if allocs != 0 {
			t.Errorf("%d clean files: a kicked pass with nothing dirty makes %.0f allocations, want 0", files, allocs)
		}
		if after.CleanedPages != 0 {
			t.Errorf("%d clean files: %d pages cleaned", files, after.CleanedPages)
		}
		if got := fs.ResidentPages("/clean-0000"); got != 1 {
			t.Errorf("%d clean files: the pass left %d pages of a clean closed file", files, got)
		}
	}
}

// TestCleanerPassCleansOnlyTheDirtyFile: one dirty file among 1024 clean ones
// gets exactly its pages cleaned, for what the same pass costs with no other
// file cached — the clean files cost the lane no virtual time before ISSUE 17
// and are not visited after it — and for a number of allocations that does
// not follow the corpus.
func TestCleanerPassCleansOnlyTheDirtyFile(t *testing.T) {
	const files, dirty = 1024, 4
	pass := func(files int) (laneClock simtime.Time, mallocs uint64) {
		h, fs := cleanCorpus(t, files, dirty)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fs.maybeClean(simtime.Time(simtime.Second))
		runtime.ReadMemStats(&after)

		cs := fs.CacheStats()
		if cs.CleanedPages != dirty {
			t.Errorf("%d clean files: CleanedPages = %d, want %d", files, cs.CleanedPages, dirty)
		}
		if got := h.read(t, "/dirty"); !bytes.Equal(got, pattern(dirty*int(fs.opt.PageSize), 6)) {
			t.Errorf("%d clean files: the cleaned pages did not reach the host", files)
		}
		if got := fs.ResidentPages("/dirty"); got != dirty {
			t.Errorf("%d clean files: cleaning in place left %d of %d pages resident", files, got, dirty)
		}
		for i := 0; i < files; i += 97 {
			if got := fs.ResidentPages(fmt.Sprintf("/clean-%04d", i)); got != 1 {
				t.Errorf("clean file %d has %d resident pages after the pass", i, got)
			}
		}
		checkDirtyCounts(t, fs)
		if got := fs.dirtyPages.Load(); got != 0 {
			t.Errorf("%d clean files: %d pages still counted dirty", files, got)
		}
		lane := fs.cleaner.a.clk
		laneClock = lane.Now()
		// A harness that rewinds virtual time takes the lane back with it,
		// or its next pass would run, and stamp Frame.CleanAt, where this one
		// ended.
		fs.ResetTimes()
		if lane.Now() != 0 {
			t.Errorf("lane clock %v after ResetTimes, want 0", lane.Now())
		}
		return laneClock, after.Mallocs - before.Mallocs
	}
	alone, _ := pass(0)
	among, mallocs := pass(files)
	if among != alone {
		t.Errorf("lane clock after the pass: %v among %d clean files, %v alone", among, files, alone)
	}
	if alone <= simtime.Time(simtime.Second) {
		t.Errorf("the pass cost the lane no virtual time: %v", alone)
	}
	if mallocs >= files/2 {
		t.Errorf("cleaning %d pages among %d clean files made %d allocations", dirty, files, mallocs)
	}
}

func BenchmarkCleanerPassCleanCorpus(b *testing.B) {
	_, fs := cleanCorpus(b, 1024, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.maybeClean(0)
	}
}

// BenchmarkCleanerPassOneDirtyOf2048 is a kicked pass over one open file of
// 2,048 resident pages with one dirty, on an FS under the low watermark: each
// iteration writes that page back and dirties it again. What else the pass
// costs follows the file's 32 leaves, not its resident pages.
func BenchmarkCleanerPassOneDirtyOf2048(b *testing.B) {
	const pages = 2048
	opt := defaultOpt()
	opt.PageSize = 4 << 10
	opt.BufferCacheBytes = (pages + 1) * opt.PageSize
	h := newHarness(b, 1, opt)
	fs := h.fss[0]
	size := pages * opt.PageSize
	h.write(b, "/f", make([]byte, size))
	_, err := h.devs[0].Launch(0, 1, 64, func(blk *gpu.Block) error {
		fd, err := fs.Open(blk, "/f", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, size)
		if _, err := fs.Read(blk, fd, buf, 0); err != nil {
			return err
		}
		_, err = fs.Write(blk, fd, pattern(int(opt.PageSize), 7), size-opt.PageSize)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	if free := fs.cache.FreeFrames(); free >= fs.cleaner.low || fs.ResidentPages("/f") != pages || fs.dirtyPages.Load() != 1 {
		b.Fatalf("set-up left %d free frames, %d resident pages, %d dirty; want < %d, %d, 1",
			free, fs.ResidentPages("/f"), fs.dirtyPages.Load(), fs.cleaner.low, pages)
	}
	fc := fs.ft.cacheOf("/f")
	g := fc.tree.Pin()
	fr := fs.cache.Frame(fc.tree.Lookup(pages - 1).Frame())
	g.Exit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.maybeClean(0)
		fs.setDirty(fc, fr, true)
	}
	b.StopTimer()
	if got := fs.CacheStats().CleanedPages; got != int64(b.N) {
		b.Fatalf("%d passes cleaned %d pages", b.N, got)
	}
}
