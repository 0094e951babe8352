package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs/internal/ckpt"
	"gpufs/internal/gpu"
)

// TestModelConformance is the model-based POSIX-conformance suite: it
// drives several GPUs through randomized schedules of gopen / gread /
// gwrite / gmmap / gfsync / gclose (plus external host writes) and checks
// every observation byte-for-byte against a plain in-memory model of the
// paper's consistency contract:
//
//   - a descriptor denotes a file; each GPU's reads see its local view —
//     the host content adopted at the last (in)validating open, overlaid
//     with the GPU's own writes since;
//   - gclose propagates nothing; the dirty view survives in the closed
//     file table and a matching reopen resumes it;
//   - gfsync makes the host equal to the writer's view and refreshes its
//     generation, so the writer's cache stays valid while every other
//     GPU's cached copy is invalidated (close-to-open consistency through
//     the wrapfs generation table);
//   - a reopen keeps the cached view iff its generation is still current,
//     and otherwise adopts the host content — silently discarding any
//     never-synced dirty data (the documented weak semantics);
//   - an external host write invalidates every GPU's cache.
//
// The model is only sound while nothing leaves the cache behind the
// schedule's back, so the cache is sized to never evict (asserted at the
// end). It runs the paper's prototype, which has no background cleaner.
func TestModelConformance(t *testing.T) {
	const schedules = 200
	for seed := 0; seed < schedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelSchedule(t, int64(seed), false, false)
		})
	}
}

// TestModelConformanceMigrated reruns the model suite with a live
// migration interposed mid-schedule (ISSUE 10): every GPU's FS is
// checkpointed, the host corpus is copied to a brand-new machine, the
// images are restored there, and the schedule FINISHES on the new
// machine. The model is untouched — a migration must be semantically
// invisible, byte for byte, including the close-to-open and weak
// discard-on-stale rules the suite already pins.
func TestModelConformanceMigrated(t *testing.T) {
	const schedules = 100
	for seed := 0; seed < schedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelSchedule(t, int64(seed), false, true)
		})
	}
}

// TestModelConformanceZeroCopy reruns the model suite on what ships: the
// ISSUE 8 hot path (zero-copy hit reads, sharded frame allocator) and
// read-ahead, which at this page size makes every host open carry its file
// (no model file outgrows a span). The cleaner is there too and never wakes:
// the pool stays above its low watermark. The preset changes how bytes are
// served, which free list frames come from and which transaction brings a
// page in, never the close-to-open semantics the model checks.
func TestModelConformanceZeroCopy(t *testing.T) {
	const schedules = 100
	for seed := 0; seed < schedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runModelSchedule(t, int64(seed), true, false)
		})
	}
}

// TestModelCarriedOpenIsCloseToOpen pins the close-to-open rules above on the
// pages a host open carries in with it (read-ahead on): they are the bytes of
// the generation the open adopts, never of the one the cache held before. A
// host writer replaces a one-page file between gclose and a re-open under other
// flags (so no fast reopen: a host open, whose offer is filled) — the reader
// sees the new bytes under the new generation, with the old page gone. The
// file then grows past a span between opens, and the next open carries the new
// generation's head: the only pages the stride detector's feedback hears of.
func TestModelCarriedOpenIsCloseToOpen(t *testing.T) {
	opt := defaultOpt()
	ps := int(opt.PageSize)
	h := newHarness(t, 1, opt)
	fs := h.fss[0]

	// openRead opens /m, checks what the open carried and what a whole-file
	// gread sees, and closes.
	openRead := func(flags int, want []byte, carried int64) {
		t.Helper()
		filled := fs.openFilled.Load()
		h.run(t, 0, func(b *gpu.Block) error {
			fd, err := fs.Open(b, "/m", flags)
			if err != nil {
				return err
			}
			if got := fs.openFilled.Load() - filled; got != carried {
				t.Errorf("open carried %d pages, want %d", got, carried)
			}
			if got := fs.ResidentPages("/m"); got != carried {
				t.Errorf("%d pages resident after the open, want the %d it carried: the previous generation's survived", got, carried)
			}
			if got, host := fs.ft.fds[fd].fc.gen.Load(), h.hostGen(t, "/m"); got != host {
				t.Errorf("cache adopted generation %d, host is at %d", got, host)
			}
			buf := make([]byte, len(want)+ps)
			n, err := fs.Read(b, fd, buf, 0)
			if err != nil || !bytes.Equal(buf[:n], want) {
				t.Errorf("gread n=%d err=%v: not the %d bytes the host holds now", n, err, len(want))
			}
			return fs.Close(b, fd)
		})
	}
	old, replaced, grown := pattern(ps, 1), pattern(ps, 2), pattern(maxHostIO+1, 3)
	h.write(t, "/m", old)
	openRead(O_RDONLY, old, 1)
	h.write(t, "/m", replaced)
	openRead(O_RDWR, replaced, 1)
	h.write(t, "/m", grown)
	span := int64(maxHostIO / ps)
	openRead(O_RDONLY, grown, span)
	if s := fs.Snapshot(); s.HostOpens != 3 || s.ClosedTableReuses != 0 {
		t.Errorf("%d host opens and %d closed-table reuses, want 3 and 0: a stale cache was kept", s.HostOpens, s.ClosedTableReuses)
	}
	if got := fs.CacheStats(); got.PrefetchWasted != 0 || got.PrefetchUsed != span || got.PrefetchIssued != span {
		t.Errorf("the whole-file carries reached the stride detector's feedback, or the head did not: %+v", got)
	}
}

const (
	modelSteps   = 40
	modelMaxFile = 16 << 10 // 4 pages of 4 KiB
)

// modelView is one GPU's modelled state for one file.
type modelView struct {
	view  []byte // local view: host-as-adopted + local writes
	valid bool   // recorded generation still matches the host's
	dirty bool   // local writes not yet propagated
	open  bool
	wr    bool
	fd    int
}

// modelFile is one file's modelled state.
type modelFile struct {
	path string
	host []byte // host content
	gpus []modelView
}

// writer returns the GPU holding the file open writable, or -1.
func (mf *modelFile) writer() int {
	for g := range mf.gpus {
		if mf.gpus[g].open && mf.gpus[g].wr {
			return g
		}
	}
	return -1
}

// openAnywhere reports whether any GPU holds the file open.
func (mf *modelFile) openAnywhere() bool {
	for g := range mf.gpus {
		if mf.gpus[g].open {
			return true
		}
	}
	return false
}

func runModelSchedule(t *testing.T, seed int64, extended, migrate bool) {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	numGPUs := 2 + int(seed%2)
	numFiles := 2 + rng.Intn(2)

	opt := prototypeOpt()
	if extended {
		opt = defaultOpt()
	}
	opt.PageSize = 4 << 10
	// 32 frames per GPU against at most 12 resident pages: the model assumes
	// no eviction (asserted below), and the cleaner's low watermark is never
	// reached.
	opt.BufferCacheBytes = 128 << 10
	h := newHarness(t, numGPUs, opt)

	files := make([]*modelFile, numFiles)
	for i := range files {
		content := make([]byte, 1+rng.Intn(modelMaxFile))
		rng.Read(content)
		mf := &modelFile{
			path: fmt.Sprintf("/model-f%d", i),
			host: content,
			gpus: make([]modelView, numGPUs),
		}
		h.write(t, mf.path, content)
		files[i] = mf
	}

	// doOpen opens mf on GPU g (keeping or adopting the view per the
	// model) and records the descriptor.
	doOpen := func(g int, mf *modelFile, flags int, wr bool) {
		st := &mf.gpus[g]
		h.run(t, g, func(b *gpu.Block) error {
			fd, err := h.fss[g].Open(b, mf.path, flags)
			if err != nil {
				return fmt.Errorf("gpu%d open %s: %w", g, mf.path, err)
			}
			st.fd = fd
			return nil
		})
		if !st.valid {
			st.view = append([]byte(nil), mf.host...)
			st.dirty = false
			st.valid = true
		}
		st.open, st.wr = true, wr
	}

	// readCheck reads [off, off+n) on GPU g and compares against the view.
	readCheck := func(step, g int, mf *modelFile, off, n int) {
		st := &mf.gpus[g]
		want := 0
		if off < len(st.view) {
			want = min(n, len(st.view)-off)
		}
		h.run(t, g, func(b *gpu.Block) error {
			buf := make([]byte, n)
			got, err := h.fss[g].Read(b, st.fd, buf, int64(off))
			if err != nil {
				return fmt.Errorf("step %d gpu%d read %s at %d: %w", step, g, mf.path, off, err)
			}
			if got != want {
				return fmt.Errorf("step %d gpu%d read %s at %d: got %d bytes, model says %d",
					step, g, mf.path, off, got, want)
			}
			if got > 0 && !bytes.Equal(buf[:got], st.view[off:off+got]) {
				return fmt.Errorf("step %d gpu%d read %s at %d+%d: content diverges from model",
					step, g, mf.path, off, got)
			}
			return nil
		})
	}

	for step := 0; step < modelSteps; step++ {
		if migrate && step == modelSteps/2 {
			// Live-migrate mid-schedule: the remaining steps (and every
			// closure above — they capture h by reference) run on the new
			// machine, against the unchanged model.
			h = migrateModelHarness(t, h, files, numGPUs, opt)
		}
		g := rng.Intn(numGPUs)
		mf := files[rng.Intn(numFiles)]
		st := &mf.gpus[g]

		switch op := rng.Intn(100); {
		case op < 22: // gopen
			// The model gives every resident page snapshot-at-open
			// semantics, but the implementation faults untouched pages
			// lazily from the CURRENT host content — so a reader that
			// stays open across another GPU's gfsync observes a mix the
			// model cannot predict. The generator therefore makes writers
			// exclusive: a writable open requires the file closed
			// everywhere, and nobody opens while a writer is active.
			// Concurrent readers remain fair game.
			if st.open || mf.writer() >= 0 {
				continue
			}
			flags, wr := O_RDONLY, false
			if !mf.openAnywhere() && rng.Intn(2) == 0 {
				flags, wr = O_RDWR, true
			}
			doOpen(g, mf, flags, wr)

		case op < 47: // gread
			if !st.open {
				continue
			}
			readCheck(step, g, mf, rng.Intn(modelMaxFile), 1+rng.Intn(6<<10))

		case op < 57: // gmmap + read through the mapping
			if !st.open || len(st.view) == 0 {
				continue
			}
			off := rng.Intn(len(st.view))
			length := 1 + rng.Intn(8<<10)
			ps := int(opt.PageSize)
			want := min(length, (off/ps+1)*ps-off) // page-prefix semantics
			want = min(want, len(st.view)-off)     // EOF clamp
			h.run(t, g, func(b *gpu.Block) error {
				m, err := h.fss[g].Mmap(b, st.fd, int64(off), int64(length))
				if err != nil {
					return fmt.Errorf("step %d gpu%d mmap %s at %d+%d: %w", step, g, mf.path, off, length, err)
				}
				if len(m.Data) != want {
					m.Munmap(b)
					return fmt.Errorf("step %d gpu%d mmap %s at %d: mapped %d bytes, model says %d",
						step, g, mf.path, off, len(m.Data), want)
				}
				if !bytes.Equal(m.Data, st.view[off:off+want]) {
					m.Munmap(b)
					return fmt.Errorf("step %d gpu%d mmap %s at %d+%d: content diverges from model",
						step, g, mf.path, off, want)
				}
				return m.Munmap(b)
			})

		case op < 79: // gwrite
			if !st.open || !st.wr {
				continue
			}
			off, n := writeExtent(rng, modelMaxFile, 4<<10, len(st.view), int(opt.PageSize))
			data := make([]byte, n)
			rng.Read(data)
			h.run(t, g, func(b *gpu.Block) error {
				got, err := h.fss[g].Write(b, st.fd, data, int64(off))
				if err != nil {
					return fmt.Errorf("step %d gpu%d write %s at %d: %w", step, g, mf.path, off, err)
				}
				if got != n {
					return fmt.Errorf("step %d gpu%d write %s at %d: wrote %d of %d", step, g, mf.path, off, got, n)
				}
				return nil
			})
			if off+n > len(st.view) {
				grown := make([]byte, off+n)
				copy(grown, st.view)
				st.view = grown
			}
			copy(st.view[off:], data)
			st.dirty = true

		case op < 89: // gfsync
			if !st.open || !st.wr {
				continue
			}
			h.run(t, g, func(b *gpu.Block) error {
				if err := h.fss[g].Fsync(b, st.fd); err != nil {
					return fmt.Errorf("step %d gpu%d fsync %s: %w", step, g, mf.path, err)
				}
				return nil
			})
			if st.dirty {
				mf.host = append([]byte(nil), st.view...)
				for gi := range mf.gpus {
					if gi != g {
						mf.gpus[gi].valid = false
					}
				}
				st.dirty = false
			}

		case op < 94: // gclose (view survives in the closed file table)
			if !st.open {
				continue
			}
			h.run(t, g, func(b *gpu.Block) error {
				return h.fss[g].Close(b, st.fd)
			})
			st.open, st.wr = false, false

		default: // external host write while the file is closed everywhere
			if mf.openAnywhere() {
				continue
			}
			data := make([]byte, 1+rng.Intn(modelMaxFile))
			rng.Read(data)
			h.write(t, mf.path, data)
			mf.host = append([]byte(nil), data...)
			for gi := range mf.gpus {
				mf.gpus[gi].valid = false
			}
		}
	}

	// Tear down: sync writers (so their views reach the host), close all.
	for _, mf := range files {
		for g := range mf.gpus {
			st := &mf.gpus[g]
			if !st.open {
				continue
			}
			if st.wr {
				h.run(t, g, func(b *gpu.Block) error {
					return h.fss[g].Fsync(b, st.fd)
				})
				if st.dirty {
					mf.host = append([]byte(nil), st.view...)
					for gi := range mf.gpus {
						if gi != g {
							mf.gpus[gi].valid = false
						}
					}
					st.dirty = false
				}
			}
			h.run(t, g, func(b *gpu.Block) error {
				return h.fss[g].Close(b, st.fd)
			})
			st.open, st.wr = false, false
		}
	}

	// Close-to-open pass: every GPU reopens every file and must observe
	// either its still-valid cached view or the current host content.
	for _, mf := range files {
		for g := 0; g < numGPUs; g++ {
			doOpen(g, mf, O_RDONLY, false)
			readCheck(modelSteps, g, mf, 0, modelMaxFile)
			st := &mf.gpus[g]
			h.run(t, g, func(b *gpu.Block) error {
				return h.fss[g].Close(b, st.fd)
			})
			st.open = false
		}
	}

	// The host itself must match the model.
	for _, mf := range files {
		if got := h.read(t, mf.path); !bytes.Equal(got, mf.host) {
			t.Errorf("host content of %s diverges from model: %d vs %d bytes", mf.path, len(got), len(mf.host))
		}
	}

	// The model is only sound if nothing was evicted behind its back.
	for g, fs := range h.fss {
		if n := fs.Cache().Reclaimed(); n != 0 {
			t.Fatalf("gpu%d evicted %d pages; the model assumes none (grow the cache)", g, n)
		}
	}
	h.checkDirtyCounts(t)
}

// migrateModelHarness checkpoints every GPU mid-schedule, builds a whole
// new machine, copies the host corpus across, and restores the images
// onto it. Open descriptors do not survive a migration (the serving layer
// quiesces between jobs), so files are closed through the normal gclose
// path first — which the model already gives view-survives-close
// semantics — and the schedule reopens them on the other side.
func migrateModelHarness(t *testing.T, h *harness, files []*modelFile, numGPUs int, opt Options) *harness {
	t.Helper()
	for _, mf := range files {
		for g := range mf.gpus {
			st := &mf.gpus[g]
			if !st.open {
				continue
			}
			h.run(t, g, func(b *gpu.Block) error {
				return h.fss[g].Close(b, st.fd)
			})
			st.open, st.wr = false, false
		}
	}
	imgs := make([]*ckpt.FSImage, numGPUs)
	for g := 0; g < numGPUs; g++ {
		img, err := h.fss[g].WalkCheckpoint(0).Commit()
		if err != nil {
			t.Fatalf("gpu%d checkpoint: %v", g, err)
		}
		imgs[g] = img
	}
	h2 := newHarness(t, numGPUs, opt)
	for _, mf := range files {
		h2.write(t, mf.path, h.read(t, mf.path))
	}
	for g := 0; g < numGPUs; g++ {
		h2.run(t, g, func(b *gpu.Block) error {
			return h2.fss[g].RestoreImage(b, imgs[g])
		})
	}
	return h2
}
