package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// randImage builds a structurally rich image from a seed, exercising
// every field including the empty/nil corners.
func randImage(seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	rs := func(n int) string {
		b := make([]byte, rng.Intn(n+1))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	rb := func(n int) []byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, 1+rng.Intn(n))
		rng.Read(b)
		return b
	}
	ri64s := func(n int) []int64 {
		if rng.Intn(4) == 0 {
			return nil
		}
		vs := make([]int64, 1+rng.Intn(n))
		for i := range vs {
			vs[i] = rng.Int63n(1 << 30)
		}
		return vs
	}
	img := &Image{
		SourceHost:   int64(rng.Intn(8)) - 1,
		CaptureStart: rng.Int63n(1 << 40),
	}
	img.CaptureEnd = img.CaptureStart + rng.Int63n(1<<30)
	for g := 0; g < rng.Intn(3); g++ {
		fi := FSImage{GPU: int64(g)}
		for f := 0; f < rng.Intn(4); f++ {
			file := FileImage{
				Path:  "/data/" + rs(12),
				Ino:   rng.Int63(),
				Gen:   rng.Int63n(100),
				Size:  rng.Int63n(1 << 20),
				Flags: int64(rng.Intn(1 << 18)),
				Clean: ri64s(8),
			}
			if rng.Intn(3) == 0 {
				file.WbErr = "io: " + rs(8)
			}
			for p := 0; p < rng.Intn(4); p++ {
				file.Dirty = append(file.Dirty, PageImage{
					Index: rng.Int63n(256),
					Valid: rng.Int63n(4096),
					Data:  rb(256),
				})
			}
			for s := 0; s < rng.Intn(3); s++ {
				file.Strides = append(file.Strides, StrideImage{
					Slot:   int64(rng.Intn(4)),
					First:  rng.Int63n(256),
					Stride: int64(rng.Intn(9) - 4),
					Window: int64(1 + rng.Intn(32)),
				})
			}
			fi.Files = append(fi.Files, file)
		}
		img.GPUs = append(img.GPUs, fi)
	}
	for q := 0; q < rng.Intn(5); q++ {
		img.Queued = append(img.Queued, JobImage{
			ID:       rng.Int63n(1 << 20),
			Tenant:   "tenant-" + rs(4),
			Kind:     int64(rng.Intn(3)),
			Path:     "/data/" + rs(12),
			Word:     rs(8),
			Deadline: rng.Int63n(1 << 40),
		})
	}
	return img
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		img := randImage(seed)
		got, err := Decode(img.Encode())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(img, got) {
			t.Fatalf("seed %d: round trip mismatch:\n in: %+v\nout: %+v", seed, img, got)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		[]byte("not a checkpoint"),
		(&Image{}).Encode()[:3],
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: decode of garbage succeeded", i)
		}
	}
	// Empty images in older layouts are an unknown version, not a
	// truncation: version 1 (profiles carried a burst, no first page),
	// version 2 (profiles in a per-GPU list keyed by path, not on their
	// file's image) and version 3 (a pipe table between the GPUs and the
	// queued jobs).
	for v, old := range map[int]string{
		1: "\xd0\x96\x8d\xba\x04\x01\x00\x00\x00\x00\x00\x00",
		2: "\xd0\x96\x8d\xba\x04\x02\x00\x00\x00\x00\x00\x00",
		3: "\xd0\x96\x8d\xba\x04\x03\x00\x00\x00\x00\x00\x00",
	} {
		if _, err := Decode([]byte(old)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decode of a version-%d image: %v, want ErrCorrupt", v, err)
		}
	}
	// Trailing junk after a valid image must be rejected too.
	good := randImage(1).Encode()
	if _, err := Decode(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Error("decode accepted trailing bytes")
	}
}

func TestCodecTruncationNeverPanics(t *testing.T) {
	enc := randImage(7).Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
}

func TestImageAccounting(t *testing.T) {
	img := &Image{
		GPUs: []FSImage{{Files: []FileImage{{
			Dirty: []PageImage{{Data: make([]byte, 100)}, {Data: make([]byte, 28)}},
			Clean: []int64{1, 2, 3},
		}}}},
	}
	if got := img.Bytes(); got != 128 {
		t.Errorf("Bytes() = %d, want 128", got)
	}
	if got := img.DirtyPages(); got != 2 {
		t.Errorf("DirtyPages() = %d, want 2", got)
	}
	if got := img.CleanPages(); got != 3 {
		t.Errorf("CleanPages() = %d, want 3", got)
	}
}

// FuzzCkptImage drives the decoder with arbitrary bytes. Anything that
// decodes must re-encode and re-decode to the identical structure
// (round-trip stability) — and nothing may panic or over-allocate.
func FuzzCkptImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GCKP"))
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randImage(seed).Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		enc := img.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded image failed: %v", err)
		}
		if !reflect.DeepEqual(img, again) {
			t.Fatalf("round trip unstable:\n first: %+v\nsecond: %+v", img, again)
		}
		if !bytes.Equal(enc, again.Encode()) {
			t.Fatal("encoding not canonical")
		}
	})
}
