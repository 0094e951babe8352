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

	ck := fs.WalkCheckpoint(0)
	img, err := ck.Commit()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if end := ck.Now(); end <= 0 {
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

// TestCkptOverwriteDuringCapture: a gwrite that brings a page in by overwrite
// fills the frame before the slot is published, so the walk never sees the
// frame before the writer's bytes are in it: the image holds exactly the
// written bytes, and a restore reproduces the source's view. The page is the
// one past the head the open carries.
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

	written := pattern(ps, 60)
	h.run(t, 0, func(b *gpu.Block) error {
		_, err := fs.Write(b, fd, written, int64(at))
		return err
	})
	if got := h.server.Requests(rpc.OpReadPages); got != 0 {
		t.Fatalf("the whole-page write fetched %d pages: the test no longer takes the overwrite edge", got)
	}
	img, err := fs.WalkCheckpoint(0).Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
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

// TestCkptBudget: a capture exceeding CkptMaxBytes fails with ErrBudget.
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

	if _, err := fs.WalkCheckpoint(0).Commit(); !errors.Is(err, ckpt.ErrBudget) {
		t.Fatalf("checkpoint with 1-byte budget: err = %v, want ErrBudget", err)
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

	img, err := fs.WalkCheckpoint(0).Commit()
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

	img, err := fs.WalkCheckpoint(0).Commit()
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

	img, err := fs.WalkCheckpoint(0).Commit()
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

// TestCkptNeverUndoesAReturnedGfsync: a migration keeps the first
// durability invariant, "if gfsync returned, the host holds the bytes".
// A page holds dirty v1 when the capture starts; a gwrite of v2 and a
// gfsync that puts v2 on the host then land (a) before the walk reaches the
// page, or (b) after the walk copied v1 and before Commit. Either Commit
// refuses the image (ErrCaptureRaced), or restoring it onto a host holding
// v2 and running gfsync there leaves v2.
func TestCkptNeverUndoesAReturnedGfsync(t *testing.T) {
	for _, tc := range []struct {
		name       string
		beforeWalk bool
	}{{"gfsync-before-walk", true}, {"gfsync-between-walk-and-commit", false}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := defaultOpt()
			ps := int(opt.PageSize)
			h := newHarness(t, 1, opt)
			fs := h.fss[0]
			h.write(t, "/ck-sync", pattern(ps, 1))
			v1, v2 := pattern(ps, 2), pattern(ps, 3)
			var fd int
			h.run(t, 0, func(b *gpu.Block) error {
				var err error
				if fd, err = fs.Open(b, "/ck-sync", O_RDWR); err != nil {
					return err
				}
				_, err = fs.Write(b, fd, v1, 0)
				return err
			})
			writeAndSync := func() {
				h.run(t, 0, func(b *gpu.Block) error {
					if _, err := fs.Write(b, fd, v2, 0); err != nil {
						return err
					}
					return fs.Fsync(b, fd)
				})
			}

			if tc.beforeWalk {
				writeAndSync()
			}
			ck := fs.WalkCheckpoint(0)
			if !tc.beforeWalk {
				writeAndSync()
			}
			img, err := ck.Commit()
			if errors.Is(err, ErrCaptureRaced) {
				return
			}
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			if got := h.read(t, "/ck-sync"); !bytes.Equal(got, v2) {
				t.Fatal("the source host does not hold v2 after gfsync returned")
			}

			h2 := newHarness(t, 1, opt)
			fs2 := h2.fss[0]
			h2.write(t, "/ck-sync", v2)
			h2.run(t, 0, func(b *gpu.Block) error {
				if err := fs2.RestoreImage(b, img); err != nil {
					return err
				}
				fd, err := fs2.Open(b, "/ck-sync", O_RDWR)
				if err != nil {
					return err
				}
				if err := fs2.Fsync(b, fd); err != nil {
					return err
				}
				return fs2.Close(b, fd)
			})
			switch got := h2.read(t, "/ck-sync"); {
			case bytes.Equal(got, v1):
				t.Fatal("the restored host holds v1: the migration undid a returned gfsync")
			case !bytes.Equal(got, v2):
				t.Fatal("the restored host holds neither v1 nor v2")
			}
		})
	}
}

// TestCkptWalkNeverTearsAPage runs walks while blocks gwrite whole pages,
// each filled with one byte that names its writer and round, some rounds
// followed by a gfsync. Every page an image carries by value must be one
// writer's page, never a mix of two, and every Commit must succeed or
// refuse the image because a gfsync raced the walk.
func TestCkptWalkNeverTearsAPage(t *testing.T) {
	opt := defaultOpt()
	ps := int(opt.PageSize)
	const blocks, rounds, pages = 4, 12, 4
	h := newHarness(t, 1, opt)
	fs := h.fss[0]
	h.write(t, "/ck-tear", bytes.Repeat([]byte{0xEE}, pages*ps))

	launched := make(chan error, 1)
	go func() {
		_, err := h.devs[0].Launch(0, blocks, 64, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/ck-tear", O_RDWR)
			if err != nil {
				return err
			}
			buf := make([]byte, ps)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = byte(1 + b.Idx*rounds + r)
				}
				for p := 0; p < pages; p++ {
					if _, err := fs.Write(b, fd, buf, int64(p*ps)); err != nil {
						return err
					}
				}
				if r%3 == 2 {
					if err := fs.Fsync(b, fd); err != nil {
						return err
					}
				}
			}
			return fs.Close(b, fd)
		})
		launched <- err
	}()

	walks, raced := 0, 0
	for done := false; !done; {
		select {
		case err := <-launched:
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			done = true
		default:
		}
		walks++
		img, err := fs.WalkCheckpoint(0).Commit()
		if errors.Is(err, ErrCaptureRaced) {
			raced++
			continue
		}
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		for _, fi := range img.Files {
			for _, pg := range fi.Dirty {
				if pg.Valid != int64(ps) || bytes.Count(pg.Data, pg.Data[:1]) != ps {
					t.Fatalf("walk %d: page %d is torn (valid %d)", walks, pg.Index, pg.Valid)
				}
			}
		}
	}
	t.Logf("%d walks, %d refused as raced", walks, raced)
}
