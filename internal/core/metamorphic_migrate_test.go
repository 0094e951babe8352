package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs/internal/gpu"
)

// Metamorphic migrate-equality (ISSUE 10): for any read shape and any
// read-ahead policy, a warm host that is checkpointed and restored onto a
// fresh machine must be indistinguishable from one that never moved. The
// metamorphic relation runs the same two-pass workload down both arms —
//
//	control:  pass 1 ─────────────────▶ pass 2   (one harness)
//	migrated: pass 1 ─▶ ckpt ─▶ restore ─▶ pass 2 (second harness)
//
// and compares the second pass: the bytes must be identical, and the
// CacheStats delta attributable to pass 2 must match, spec-adjusted — the
// speculative consumption counters (used/wasted splits) are zeroed because
// they depend on fetch-completion timing that a restore legitimately
// compresses, while issuance and replay decisions must agree exactly.

// migrateShape reads the whole file into dst through one access pattern.
type migrateShape struct {
	name string
	read func(fs *FS, b *gpu.Block, fd int, dst []byte, pageSize int) error
}

func migrateShapes() []migrateShape {
	return []migrateShape{
		{"whole", func(fs *FS, b *gpu.Block, fd int, dst []byte, pageSize int) error {
			return chunkedRead(fs, b, fd, dst, len(dst))
		}},
		{"strided", func(fs *FS, b *gpu.Block, fd int, dst []byte, pageSize int) error {
			// Even pages first, then odd: a deterministic non-sequential
			// sweep that still covers every byte.
			for _, parity := range []int{0, 1} {
				for off := parity * pageSize; off < len(dst); off += 2 * pageSize {
					n := pageSize
					if off+n > len(dst) {
						n = len(dst) - off
					}
					got, err := fs.Read(b, fd, dst[off:off+n], int64(off))
					if err != nil {
						return err
					}
					if got != n {
						return fmt.Errorf("short read at %d: %d of %d", off, got, n)
					}
				}
			}
			return nil
		}},
		{"random", func(fs *FS, b *gpu.Block, fd int, dst []byte, pageSize int) error {
			// Page-sized chunks in a seeded shuffle: same permutation on
			// every run, so both arms issue the identical access stream.
			var offs []int
			for off := 0; off < len(dst); off += pageSize {
				offs = append(offs, off)
			}
			rng := rand.New(rand.NewSource(42))
			rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
			for _, off := range offs {
				n := pageSize
				if off+n > len(dst) {
					n = len(dst) - off
				}
				got, err := fs.Read(b, fd, dst[off:off+n], int64(off))
				if err != nil {
					return err
				}
				if got != n {
					return fmt.Errorf("short read at %d: %d of %d", off, got, n)
				}
			}
			return nil
		}},
	}
}

// runMigratePass opens, reads via shape, and closes — one pass.
func runMigratePass(t *testing.T, h *harness, shape migrateShape, pageSize int, want []byte) []byte {
	t.Helper()
	got := make([]byte, len(want))
	fs := h.fss[0]
	h.run(t, 0, func(b *gpu.Block) error {
		fd, err := fs.Open(b, "/meta-mig", O_RDONLY)
		if err != nil {
			return err
		}
		if err := shape.read(fs, b, fd, got, pageSize); err != nil {
			return fmt.Errorf("shape %s: %w", shape.name, err)
		}
		return fs.Close(b, fd)
	})
	return got
}

// csSub returns b − a field-wise.
func csSub(a, b CacheStats) CacheStats {
	return CacheStats{
		PrefetchIssued: b.PrefetchIssued - a.PrefetchIssued,
		PrefetchUsed:   b.PrefetchUsed - a.PrefetchUsed,
		PrefetchWasted: b.PrefetchWasted - a.PrefetchWasted,
		CleanedPages:   b.CleanedPages - a.CleanedPages,
		CleanerKicks:   b.CleanerKicks - a.CleanerKicks,
		ReplayIssued:   b.ReplayIssued - a.ReplayIssued,
		ReplayUsed:     b.ReplayUsed - a.ReplayUsed,
		ReplayWasted:   b.ReplayWasted - a.ReplayWasted,
		HistoryReplays: b.HistoryReplays - a.HistoryReplays,
	}
}

// specAdjust zeroes the speculation-consumption counters whose values
// depend on fetch-completion timing relative to the consuming access — the
// one latitude a restore is allowed (restored pages are all "already
// arrived"). Issuance counts and replay decisions are NOT adjusted.
func specAdjust(cs CacheStats) CacheStats {
	cs.PrefetchUsed, cs.PrefetchWasted = 0, 0
	cs.ReplayUsed, cs.ReplayWasted = 0, 0
	return cs
}

func TestMetamorphicMigrateEquality(t *testing.T) {
	baseOpt := defaultOpt()
	pageSize := int(baseOpt.PageSize)
	want := pattern(7*pageSize+1234, 11) // ~7.08 pages

	for _, pol := range readPolicies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			for _, shape := range migrateShapes() {
				shape := shape
				t.Run(shape.name, func(t *testing.T) {
					opt := pol.opt()

					// Control arm: two passes on one harness.
					hc := newHarness(t, 1, opt)
					hc.write(t, "/meta-mig", want)
					if got := runMigratePass(t, hc, shape, pageSize, want); !bytes.Equal(got, want) {
						t.Fatal("control pass 1: bytes diverge")
					}
					mark := hc.fss[0].CacheStats()
					gotC := runMigratePass(t, hc, shape, pageSize, want)
					deltaC := csSub(mark, hc.fss[0].CacheStats())

					// Migrated arm: pass 1, checkpoint, restore onto a
					// fresh host with the same corpus, pass 2 there.
					ha := newHarness(t, 1, opt)
					ha.write(t, "/meta-mig", want)
					if got := runMigratePass(t, ha, shape, pageSize, want); !bytes.Equal(got, want) {
						t.Fatal("migrated pass 1: bytes diverge")
					}
					img, err := ha.fss[0].WalkCheckpoint(0).Commit()
					if err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					hb := newHarness(t, 1, opt)
					hb.write(t, "/meta-mig", want)
					hb.run(t, 0, func(b *gpu.Block) error {
						return hb.fss[0].RestoreImage(b, img)
					})
					mark = hb.fss[0].CacheStats()
					gotM := runMigratePass(t, hb, shape, pageSize, want)
					deltaM := csSub(mark, hb.fss[0].CacheStats())

					if !bytes.Equal(gotM, want) {
						t.Errorf("migrated pass 2: bytes diverge from the corpus")
					}
					if !bytes.Equal(gotM, gotC) {
						t.Errorf("migrated and control second passes disagree")
					}
					ac, am := specAdjust(deltaC), specAdjust(deltaM)
					if ac != am {
						t.Errorf("pass-2 CacheStats diverge across migration:\n  control  %+v\n  migrated %+v", ac, am)
					}
					if pol.specFree && (deltaC != ac || deltaM != am) {
						t.Errorf("speculation counters moved under the %q policy: control %+v migrated %+v",
							pol.name, deltaC, deltaM)
					}
					for _, h := range []*harness{hc, ha, hb} {
						h.checkDirtyCounts(t)
					}
				})
			}
		})
	}
}
