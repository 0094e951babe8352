package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpufs/internal/gpu"
	"gpufs/internal/simtime/simtest"
)

// The order in which speculation reclaims closed files (cleanVictims), from
// both sides: a cyclic re-scan over more files than the cache holds, where
// oldest retirement first takes exactly the file the scan reopens next, and a
// late block's reopen of the file just closed (§3.2), which oldest first
// keeps. Both run one block at one P, so every count is exact.

// TestRescanKeepsWhatItRereads: one block scans 32 files of 8 pages through a
// cache of 8 files' pages, twice, and every page the scan loses it loses to
// speculation. The second pass's first reopen finds its file emptied, so
// speculation reclaims newest retirement first from then on: the files pass
// one closed last stay put, less the one that the first reopen's read-ahead
// displaced, and pass two finds each of them whole and sends them nothing.
// Oldest first would have emptied each just before its reopen.
func TestRescanKeepsWhatItRereads(t *testing.T) {
	simtest.OneP(t)
	const files, filePages, cacheFiles = 32, 8, 8
	opt := defaultOpt()
	opt.BufferCacheBytes = cacheFiles * filePages * opt.PageSize
	ps := opt.PageSize
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	want := make([][]byte, files)
	for i := range want {
		want[i] = pattern(filePages*int(ps), byte(i))
		h.write(t, fmt.Sprintf("/scan%02d", i), want[i])
	}
	var found [2][files]int64
	var requests [2]int64
	h.run(t, 0, func(b *gpu.Block) error {
		buf := make([]byte, ps)
		for pass := 0; pass < 2; pass++ {
			sent := h.server.TotalRequests()
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/scan%02d", i)
				found[pass][i] = fs.ResidentPages(path)
				fd, err := fs.Open(b, path, O_RDONLY)
				if err != nil {
					return err
				}
				for p := int64(0); p < filePages; p++ {
					if _, err := fs.Read(b, fd, buf, p*ps); err != nil {
						return err
					}
					if !bytes.Equal(buf, want[i][p*ps:(p+1)*ps]) {
						t.Errorf("pass %d %s page %d: wrong bytes", pass, path, p)
					}
				}
				if err := fs.Close(b, fd); err != nil {
					return err
				}
			}
			requests[pass] = h.server.TotalRequests() - sent
		}
		return nil
	})
	cs := fs.CacheStats()
	if cs.SpecReclaimed == 0 || fs.Cache().Reclaimed() != cs.SpecReclaimed {
		t.Fatalf("%d pages reclaimed, %d of them by speculation: want speculation's alone", fs.Cache().Reclaimed(), cs.SpecReclaimed)
	}
	kept := 0
	for i, got := range found[1] {
		wantFound := int64(0)
		if i >= files-cacheFiles && i < files-1 {
			wantFound, kept = filePages, kept+1
		}
		if got != wantFound {
			t.Errorf("pass two found /scan%02d holding %d pages, want %d", i, got, wantFound)
		}
	}
	if requests[0] != files || requests[1] != files-int64(kept) {
		t.Errorf("the passes sent %d and %d requests, want one a file and then %d fewer", requests[0], requests[1], kept)
	}
	fs.ft.check(t)
	h.checkDirtyCounts(t)
}

// TestLateReopenStillHits: early blocks close four small files, then a late
// block reopens the newest of them while it still holds its pages, and closes
// it again. That reuse found its pages, so it turns the walk back to oldest
// retirement first, though a re-scan had turned it around before. A
// confirmed stream then reclaims from a dry pool, and a later block's reopen
// of that same file must still find every page: newest retirement first
// would have given it to the stream. One block plays each part in turn.
func TestLateReopenStillHits(t *testing.T) {
	simtest.OneP(t)
	const small, smallPages, streamPages = 4, 4, 16
	opt := defaultOpt() // 64 frames
	ps := opt.PageSize
	span := maxHostIO / ps
	openPages := opt.BufferCacheBytes/ps - small*smallPages - span
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	fs.cleaner.busy.Store(true) // no pass may pre-evict
	for i := 0; i < small; i++ {
		h.write(t, fmt.Sprintf("/early%d", i), pattern(int(smallPages*ps), byte(i)))
	}
	h.write(t, "/open", pattern(int(openPages*ps), 8))
	stream := pattern(int(streamPages*ps), 9)
	h.write(t, "/stream", stream)
	late := fmt.Sprintf("/early%d", small-1)
	openRead := func(b *gpu.Block, path string, pages int64) (int, error) {
		fd, err := fs.Open(b, path, O_RDONLY)
		if err == nil {
			gread(t, fs, b, fd, pages*ps)
		}
		return fd, err
	}
	h.run(t, 0, func(b *gpu.Block) error {
		for i := 0; i < small; i++ {
			fd, err := openRead(b, fmt.Sprintf("/early%d", i), smallPages)
			if err != nil {
				return err
			}
			if err := fs.Close(b, fd); err != nil {
				return err
			}
		}
		fs.ft.rescan.Store(true) // as a re-scan's reopen of an emptied cache left it
		fd, err := fs.Open(b, late, O_RDONLY)
		if err != nil {
			return err
		}
		if fs.ft.rescan.Load() {
			t.Error("a reopen that found its pages left speculation walking newest first")
		}
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		open, err := openRead(b, "/open", openPages)
		if err != nil {
			return err
		}
		fd, err = fs.Open(b, "/stream", O_RDONLY)
		if err != nil {
			return err
		}
		if free, clean := fs.cache.FreeFrames(), fs.ft.closedCleanPages(); free != 0 || clean != small*smallPages {
			t.Fatalf("the stream's head left %d frames free and %d closed clean pages, want a dry pool and %d", free, clean, small*smallPages)
		}
		got := make([]byte, ps)
		for p := int64(0); p < streamPages; p++ {
			if _, err := fs.Read(b, fd, got, p*ps); err != nil {
				return err
			}
			if !bytes.Equal(got, stream[p*ps:(p+1)*ps]) {
				t.Errorf("stream page %d: wrong bytes", p)
			}
		}
		if err := fs.Close(b, fd); err != nil {
			return err
		}
		return fs.Close(b, open)
	})
	cs := fs.CacheStats()
	if cs.SpecReclaimed != span || fs.Cache().Reclaimed() != cs.SpecReclaimed {
		t.Errorf("%d pages reclaimed, %d of them by speculation: want a span's %d, speculation's alone", fs.Cache().Reclaimed(), cs.SpecReclaimed, span)
	}
	// Oldest retirement first: /early0 and /early1 gave the stream its span.
	for i, want := range []int64{0, 0, smallPages, smallPages} {
		if got := fs.ResidentPages(fmt.Sprintf("/early%d", i)); got != want {
			t.Errorf("the stream left /early%d %d pages, want %d", i, got, want)
		}
	}
	sent, reuses := h.server.TotalRequests(), fs.Snapshot().ClosedTableReuses
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := openRead(b, late, smallPages)
		if err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	if got := h.server.TotalRequests() - sent; got != 0 || fs.Snapshot().ClosedTableReuses != reuses+1 {
		t.Errorf("the late block's reopen sent %d requests and reused %d caches, want none and one", got, fs.Snapshot().ClosedTableReuses-reuses)
	}
	fs.ft.check(t)
	h.checkDirtyCounts(t)
}
