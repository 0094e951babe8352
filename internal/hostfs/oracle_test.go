package hostfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gpufs/internal/simtime"
)

// TestHostfsOracle drives the host file system through random operation
// sequences and validates every observation against a map-based model —
// the substrate must be trustworthy before GPUfs semantics are layered on
// top of it.
func TestHostfsOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHostfsOracle(t, seed)
		})
	}
}

func runHostfsOracle(t *testing.T, seed int64) {
	fs := New(Options{
		DiskBandwidth: 132 * simtime.MBps,
		DiskSeek:      simtime.Millisecond,
		MemBandwidth:  6600 * simtime.MBps,
		CacheBytes:    2 << 20, // small: eviction traffic too
	})
	c := simtime.NewClock(0)
	rng := rand.New(rand.NewSource(seed))

	paths := []string{"/a", "/b", "/d/c", "/d/e"}
	fs.MkdirAll("/d", ModeDir|rw)
	model := map[string][]byte{} // existing files only

	const maxLen = 96 << 10
	for step := 0; step < 400; step++ {
		p := paths[rng.Intn(len(paths))]
		cur, exists := model[p]
		switch op := rng.Intn(100); {
		case op < 35: // pwrite (creating if needed)
			f, err := fs.Open(c, p, O_RDWR|O_CREATE, rw)
			if err != nil {
				t.Fatalf("step %d open: %v", step, err)
			}
			off := rng.Intn(maxLen / 2)
			n := rng.Intn(8<<10) + 1
			data := make([]byte, n)
			rng.Read(data)
			if _, _, err := f.Pwrite(c, data, int64(off)); err != nil {
				t.Fatalf("step %d pwrite: %v", step, err)
			}
			f.Close()
			if off+n > len(cur) {
				grown := make([]byte, off+n)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			model[p] = cur

		case op < 70: // pread
			if !exists {
				if _, err := fs.Open(c, p, O_RDONLY, 0); err == nil {
					t.Fatalf("step %d: opened a file the model says is absent", step)
				}
				continue
			}
			f, err := fs.Open(c, p, O_RDONLY, 0)
			if err != nil {
				t.Fatalf("step %d open: %v", step, err)
			}
			off := rng.Intn(len(cur) + 10)
			buf := make([]byte, rng.Intn(8<<10)+1)
			n, err := f.Pread(c, buf, int64(off))
			f.Close()
			if err != nil {
				t.Fatalf("step %d pread: %v", step, err)
			}
			want := len(cur) - off
			if want < 0 {
				want = 0
			}
			if want > len(buf) {
				want = len(buf)
			}
			if n != want {
				t.Fatalf("step %d pread length %d, want %d", step, n, want)
			}
			if !bytes.Equal(buf[:n], cur[off:off+n]) {
				t.Fatalf("step %d pread content mismatch at %d", step, off)
			}

		case op < 82: // truncate
			if !exists {
				continue
			}
			f, err := fs.Open(c, p, O_RDWR, 0)
			if err != nil {
				t.Fatalf("step %d open: %v", step, err)
			}
			size := rng.Intn(maxLen)
			if _, err := f.Ftruncate(c, int64(size)); err != nil {
				t.Fatalf("step %d truncate: %v", step, err)
			}
			f.Close()
			if size < len(cur) {
				cur = cur[:size]
			} else {
				grown := make([]byte, size)
				copy(grown, cur)
				cur = grown
			}
			model[p] = append([]byte(nil), cur...)

		case op < 90: // unlink
			err := fs.Unlink(p)
			if exists && err != nil {
				t.Fatalf("step %d unlink existing: %v", step, err)
			}
			if !exists && err == nil {
				t.Fatalf("step %d unlink of absent file succeeded", step)
			}
			delete(model, p)

		case op < 95: // stat agreement
			info, err := fs.Stat(p)
			if exists != (err == nil) {
				t.Fatalf("step %d stat existence mismatch: %v vs %v", step, exists, err)
			}
			if exists && info.Size != int64(len(cur)) {
				t.Fatalf("step %d stat size %d, want %d", step, info.Size, len(cur))
			}

		default: // drop caches: timing state only, content intact
			fs.DropCaches()
		}
	}

	// Final sweep: every modelled file reads back exactly.
	for p, want := range model {
		got, err := fs.ReadFile(c, p)
		if err != nil {
			t.Fatalf("final read %s: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final content mismatch for %s: %d vs %d bytes", p, len(got), len(want))
		}
	}
}
