package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gpufs/internal/ckpt"
	"gpufs/internal/gpu"
	"gpufs/internal/rpc"
)

// ckptPage returns the dirty PageImage for index idx, or nil.
func ckptPage(fi *ckpt.FileImage, idx int64) *ckpt.PageImage {
	for i := range fi.Dirty {
		if fi.Dirty[i].Index == idx {
			return &fi.Dirty[i]
		}
	}
	return nil
}

func ckptHasClean(fi *ckpt.FileImage, idx int64) bool {
	for _, c := range fi.Clean {
		if c == idx {
			return true
		}
	}
	return false
}

// TestCkptRoundTrip is the basic capture/restore cycle: dirty pages travel
// by value, clean pages by validated reference, and a reopen on the
// restored host observes exactly the source's view.
func TestCkptRoundTrip(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)
	span := int64(maxHostIO / ps)

	// Three pages past the head an open carries; the dirty one is the middle
	// one, so the restore fetches a clean page on either side of it.
	orig := pattern(int(maxHostIO)+3*ps, 1)
	h.write(t, "/ck-a", orig)

	overlay := pattern(ps, 99)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/ck-a", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, len(orig))
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, overlay, (span+1)*int64(ps)); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})

	img, end, err := fs.CheckpointImage(0)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if end <= 0 {
		t.Errorf("checkpoint actor clock did not advance: end=%v", end)
	}
	if len(img.Files) != 1 {
		t.Fatalf("image has %d files, want 1", len(img.Files))
	}
	fi := &img.Files[0]
	pg := ckptPage(fi, span+1)
	if pg == nil {
		t.Fatalf("page %d not captured dirty; dirty=%v clean=%v", span+1, len(fi.Dirty), fi.Clean)
	}
	if !bytes.Equal(pg.Data[:ps], overlay) {
		t.Errorf("dirty page %d content diverges from the written bytes", span+1)
	}
	if !ckptHasClean(fi, 0) || !ckptHasClean(fi, span) || !ckptHasClean(fi, span+2) {
		t.Errorf("clean pages 0, %d, %d not captured by reference: clean=%v", span, span+2, fi.Clean)
	}
	if ckptHasClean(fi, span+1) {
		t.Errorf("dirty page %d also listed clean", span+1)
	}
	st := fs.CkptStats()
	if st.PagesDirty < 1 || st.PagesClean < 2 || st.SnapshotBytes < int64(ps) {
		t.Errorf("ckpt stats off: %+v", st)
	}

	// Restore onto a fresh host holding the ORIGINAL content (the dirty
	// overlay never reached the source host — it is the image's payload).
	h2 := newHarness(t, 1, opt)
	h2.write(t, "/ck-a", orig)
	h2.run(t, 0, func(b *gpu.Block) error {
		return h2.fss[0].RestoreImage(b, img)
	})
	// The dirty page travels by value and is the page's whole content: the
	// restore fills its frame from the image, and only the clean pages past the
	// head its open carried are fetched: pages span and span+2, one request each.
	if got := h2.server.Requests(rpc.OpReadPages); got != 2 {
		t.Errorf("restore sent %d reads, want 2: the clean pages, not the dirty one", got)
	}

	want := append([]byte(nil), orig...)
	copy(want[(span+1)*int64(ps):], overlay)
	h2.run(t, 0, func(b *gpu.Block) error {
		fd, err := h2.fss[0].Open(b, "/ck-a", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, len(want))
		n, err := h2.fss[0].Read(b, fd, buf, 0)
		if err != nil {
			return err
		}
		if n != len(want) || !bytes.Equal(buf[:n], want) {
			t.Errorf("restored view diverges from source view (%d/%d bytes equal-len)", n, len(want))
		}
		return h2.fss[0].Close(b, fd)
	})
	// The restored host must not have adopted the dirty overlay: only a
	// gfsync propagates.
	if got := h2.read(t, "/ck-a"); !bytes.Equal(got, orig) {
		t.Error("restore leaked dirty pages to the new host's file")
	}
}

// TestCkptCoWPreWriteCut pins the copy-on-write cut: a gwrite racing the
// snapshot must preserve the PRE-write content in the image, and the walk
// must not overwrite that earlier cut with post-write bytes.
func TestCkptCoWPreWriteCut(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)

	h.write(t, "/ck-cow", pattern(2*ps, 3))
	before := pattern(ps, 50)
	after := pattern(ps, 51)

	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/ck-cow", O_RDWR)
		if err != nil {
			return err
		}
		_, err = fs.Write(b, fd, before, 0)
		return err
	})

	ck, err := fs.BeginCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	// This write lands while the capture is installed: the hook must copy
	// the pre-write page before the new bytes overwrite it.
	h.run(t, 0, func(b *gpu.Block) error {
		_, err := fs.Write(b, fd, after, 0)
		return err
	})
	ck.Walk()
	img, err := ck.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(img.Files) != 1 {
		t.Fatalf("image has %d files, want 1", len(img.Files))
	}
	pg := ckptPage(&img.Files[0], 0)
	if pg == nil {
		t.Fatal("page 0 missing from the image")
	}
	if !bytes.Equal(pg.Data[:ps], before) {
		if bytes.Equal(pg.Data[:ps], after) {
			t.Fatal("image holds the POST-write content: the CoW cut failed")
		}
		t.Fatal("image page 0 matches neither pre- nor post-write content")
	}
	if st := fs.CkptStats(); st.CoWFaults < 1 {
		t.Errorf("CoWFaults = %d, want >= 1", st.CoWFaults)
	}
	h.run(t, 0, func(b *gpu.Block) error { return fs.Close(b, fd) })
}

// TestCkptOverwriteDuringCapture: a gwrite that brings a page in by overwrite
// while a capture is installed has no pre-write image to preserve — the page
// was not resident, and the host's copy is what it held before — so the hook
// is not called and, above all, never sees the frame before the writer's bytes
// are in it. The page's cut is the walk's, which finds it filled: the image
// holds exactly the written bytes, and a restore reproduces the source's view.
// The page is the one past the head the open carries.
func TestCkptOverwriteDuringCapture(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)
	at := int(maxHostIO) // the page past the head: it stays cold

	orig := pattern(at+ps, 3)
	h.write(t, "/ck-over", orig)
	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/ck-over", O_RDWR)
		return err
	})

	ck, err := fs.BeginCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	written := pattern(ps, 60)
	h.run(t, 0, func(b *gpu.Block) error {
		_, err := fs.Write(b, fd, written, int64(at))
		return err
	})
	if got := h.server.Requests(rpc.OpReadPages); got != 0 {
		t.Fatalf("the whole-page write fetched %d pages: the test no longer takes the overwrite edge", got)
	}
	ck.Walk()
	img, err := ck.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if st := fs.CkptStats(); st.CoWFaults != 0 {
		t.Errorf("CoWFaults = %d: the hook ran on a page that had no pre-write image", st.CoWFaults)
	}
	pg := ckptPage(&img.Files[0], int64(at/ps))
	if pg == nil || pg.Valid != int64(ps) || !bytes.Equal(pg.Data[:ps], written) {
		t.Fatalf("page %d in the image is not the written page (present=%v)", at/ps, pg != nil)
	}
	h.run(t, 0, func(b *gpu.Block) error { return fs.Close(b, fd) })

	h2 := newHarness(t, 1, opt)
	h2.write(t, "/ck-over", orig)
	h2.run(t, 0, func(b *gpu.Block) error {
		if err := h2.fss[0].RestoreImage(b, img); err != nil {
			return err
		}
		fd, err := h2.fss[0].Open(b, "/ck-over", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, len(orig))
		if n, err := h2.fss[0].Read(b, fd, buf, 0); err != nil || n != len(buf) {
			return err
		}
		if !bytes.Equal(buf[at:], written) || !bytes.Equal(buf[:at], orig[:at]) {
			t.Error("restored view diverges from the source's: the last page as written, the rest as on the host")
		}
		return h2.fss[0].Close(b, fd)
	})
}

// TestCkptCoWCleanReference: a write hitting a still-clean page during the
// capture records it by reference exactly once (hook and walk dedup
// through the done set).
func TestCkptCoWCleanReference(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)

	h.write(t, "/ck-clean", pattern(2*ps, 9))
	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/ck-clean", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, 2*ps)
		_, err = fs.Read(b, fd, buf, 0) // both pages resident, clean
		return err
	})

	ck, err := fs.BeginCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, 0, func(b *gpu.Block) error {
		_, err := fs.Write(b, fd, pattern(ps, 77), 0)
		return err
	})
	ck.Walk()
	img, err := ck.Commit()
	if err != nil {
		t.Fatal(err)
	}
	fi := &img.Files[0]
	n := 0
	for _, c := range fi.Clean {
		if c == 0 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("pre-write clean page 0 recorded %d times by reference, want 1 (clean=%v)", n, fi.Clean)
	}
	if ckptPage(fi, 0) != nil {
		t.Error("page 0 was clean at the cut; it must not travel by value")
	}
	h.run(t, 0, func(b *gpu.Block) error { return fs.Close(b, fd) })
}

// TestCkptBudget: a capture exceeding CkptMaxBytes fails with ErrBudget
// and uninstalls itself, leaving the hot path unhooked.
func TestCkptBudget(t *testing.T) {
	opt := defaultOpt()
	opt.CkptMaxBytes = 1
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	h.write(t, "/ck-budget", pattern(int(opt.PageSize), 4))
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/ck-budget", O_RDWR)
		if err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, pattern(int(opt.PageSize), 5), 0); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})

	if _, _, err := fs.CheckpointImage(0); !errors.Is(err, ckpt.ErrBudget) {
		t.Fatalf("checkpoint with 1-byte budget: err = %v, want ErrBudget", err)
	}
	if fs.capture.Load() != nil {
		t.Fatal("failed checkpoint left the capture installed")
	}
}

// TestCkptValidationDrop: a retired file whose host generation moved after
// the GPU cached it is condemned data — the commit must drop it from the
// image entirely (clean refs AND dirty pages), because the source's own
// next reopen would discard that view.
func TestCkptValidationDrop(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)

	h.write(t, "/ck-stale", pattern(2*ps, 6))
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/ck-stale", O_RDWR)
		if err != nil {
			return err
		}
		buf := make([]byte, ps)
		if _, err := fs.Read(b, fd, buf, 0); err != nil {
			return err
		}
		if _, err := fs.Write(b, fd, pattern(ps, 7), int64(ps)); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})

	// External host write after the close: generation moves, the closed
	// view is condemned.
	h.write(t, "/ck-stale", pattern(2*ps, 8))

	img, _, err := fs.CheckpointImage(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Files {
		if img.Files[i].Path == "/ck-stale" {
			t.Fatalf("stale retired file still in the image: dirty=%d clean=%d",
				len(img.Files[i].Dirty), len(img.Files[i].Clean))
		}
	}
	if st := fs.CkptStats(); st.ValidationDrops < 1 {
		t.Errorf("ValidationDrops = %d, want >= 1", st.ValidationDrops)
	}
}

// TestCkptWbErrRoundTrip: the sticky write-back error mark survives the
// migration — the tenant's first gfsync on the restored host still learns
// the source's data never hit the disk.
func TestCkptWbErrRoundTrip(t *testing.T) {
	opt := defaultOpt()
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	ps := int(opt.PageSize)

	h.write(t, "/ck-wb", pattern(ps, 2))
	var fd int
	h.run(t, 0, func(b *gpu.Block) error {
		var err error
		fd, err = fs.Open(b, "/ck-wb", O_RDWR)
		if err != nil {
			return err
		}
		_, err = fs.Write(b, fd, pattern(ps, 3), 0)
		return err
	})
	f, err := fs.ft.lookup(fd)
	if err != nil {
		t.Fatal(err)
	}
	f.fc.recordWriteErr(errors.New("simulated async write-back EIO"))

	img, _, err := fs.CheckpointImage(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Files) != 1 || img.Files[0].WbErr == "" {
		t.Fatalf("errseq mark missing from the image: %+v", img.Files)
	}
	// Peeked, not consumed: the source still owes the error too.
	h.run(t, 0, func(b *gpu.Block) error {
		if err := fs.Fsync(b, fd); err == nil {
			t.Error("source fsync after checkpoint lost the write-back error")
		}
		return fs.Close(b, fd)
	})

	h2 := newHarness(t, 1, opt)
	h2.write(t, "/ck-wb", pattern(ps, 2))
	h2.run(t, 0, func(b *gpu.Block) error {
		return h2.fss[0].RestoreImage(b, img)
	})
	h2.run(t, 0, func(b *gpu.Block) error {
		fd, err := h2.fss[0].Open(b, "/ck-wb", O_RDWR)
		if err != nil {
			return err
		}
		err = h2.fss[0].Fsync(b, fd)
		if err == nil {
			t.Error("restored host's first fsync did not surface the migrated write-back error")
		} else if !strings.Contains(err.Error(), "simulated async write-back EIO") {
			t.Errorf("restored fsync error = %v, want the source's mark", err)
		}
		return h2.fss[0].Close(b, fd)
	})
}

// TestCkptHistoryProfileRoundTrip: a file's read-ahead profile migrates on
// its file image, so the replacement host's first open of it starts from the
// source's streams — when the replacement's copy is the one the profile was
// recorded against. A copy of another size gets no profile and replays
// nothing.
func TestCkptHistoryProfileRoundTrip(t *testing.T) {
	opt := defaultOpt()
	ps := opt.PageSize
	want := pattern(histPagesA*int(ps), 5)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/ck-hist", want)
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/ck-hist", O_RDONLY)
		if err != nil {
			return err
		}
		if err := histShapes()[0].read(fs, b, fd, ps, want); err != nil {
			return err
		}
		return fs.Close(b, fd)
	})
	prof := fs.ft.cacheOf("/ck-hist").profile.Load()
	if prof == nil {
		t.Fatal("the sequential open recorded no profile")
	}

	img, _, err := fs.CheckpointImage(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Files) != 1 || !reflect.DeepEqual(img.Files[0].Strides, *prof) {
		t.Fatalf("profile not on its file image: %+v, want strides %+v", img.Files, *prof)
	}

	for _, tc := range []struct {
		name     string
		hostCopy []byte
		attached bool
	}{
		{"same-copy", want, true},
		{"other-size", want[:len(want)/2], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h2 := newHarness(t, 1, opt)
			fs2 := h2.fss[0]
			h2.write(t, "/ck-hist", tc.hostCopy)
			h2.run(t, 0, func(b *gpu.Block) error {
				return fs2.RestoreImage(b, img)
			})
			got := fs2.ft.cacheOf("/ck-hist").profile.Load()
			if tc.attached && (got == nil || !reflect.DeepEqual(*got, *prof)) {
				t.Fatalf("restored profile %v, want %+v", got, *prof)
			}
			if !tc.attached && got != nil {
				t.Fatalf("profile attached to a copy of another size: %+v", *got)
			}
			before := fs2.CacheStats()
			h2.run(t, 0, func(b *gpu.Block) error {
				fd, err := fs2.Open(b, "/ck-hist", O_RDONLY)
				if err != nil {
					return err
				}
				buf := make([]byte, len(tc.hostCopy))
				if _, err := fs2.Read(b, fd, buf, 0); err != nil {
					return err
				}
				if !bytes.Equal(buf, tc.hostCopy) {
					return errors.New("restored file reads wrong bytes")
				}
				return fs2.Close(b, fd)
			})
			replays := fs2.CacheStats().HistoryReplays - before.HistoryReplays
			issued := fs2.CacheStats().ReplayIssued - before.ReplayIssued
			if tc.attached && replays != 1 {
				t.Errorf("first open after restore: %d replays, want 1", replays)
			}
			if !tc.attached && (replays != 0 || issued != 0) {
				t.Errorf("first open after restore replayed: %d replays, %d pages", replays, issued)
			}
		})
	}
}

// TestCkptBeginConflict: one capture at a time; Abort frees the slot.
func TestCkptBeginConflict(t *testing.T) {
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	ck, err := fs.BeginCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.BeginCheckpoint(0); !errors.Is(err, ErrCheckpointActive) {
		t.Fatalf("second begin: err = %v, want ErrCheckpointActive", err)
	}
	ck.Abort()
	ck2, err := fs.BeginCheckpoint(0)
	if err != nil {
		t.Fatalf("begin after abort: %v", err)
	}
	ck2.Abort()
}
