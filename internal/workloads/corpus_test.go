package workloads

import (
	"math/rand"
	"os"
	"testing"
)

// makeWordRand is MakeWord as it was written before wordRand: a freshly
// seeded math/rand source per word. It is the oracle MakeWord must equal.
func makeWordRand(i int) string {
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
	n := 3 + rng.Intn(10)
	b := make([]byte, n)
	for j := range b {
		b[j] = letters[rng.Intn(len(letters))]
	}
	for v := i; ; v /= 26 {
		b = append(b, letters[v%26])
		if v < 26 {
			break
		}
	}
	if len(b) >= WordAlign {
		b = b[:WordAlign-1]
	}
	return string(b)
}

func checkWords(t *testing.T, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if got, want := MakeWord(i), makeWordRand(i); got != want {
			t.Fatalf("MakeWord(%d) = %q, math/rand gives %q", i, got, want)
		}
	}
}

// TestMakeWordMatchesMathRand holds MakeWord to the math/rand form on the
// dictionary's indexes, on MakeText's range [1,000,000, 2,000,000), on
// seeded draws from [0, 2³¹) and at indexes whose seed overflows int64.
func TestMakeWordMatchesMathRand(t *testing.T) {
	checkWords(t, 0, 20_000)
	checkWords(t, 1_000_000, 1_020_000)
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 10_000; n++ {
		i := int(rng.Int31())
		checkWords(t, i, i+1)
	}
	for _, i := range []int{3_000_000_000, 1 << 40} {
		checkWords(t, i, i+1)
	}
}

// TestMakeWordMatchesMathRandFullRange covers every index MakeDictionary
// and MakeText use, [0, 2,100,000). It takes tens of seconds, so plain
// `go test` skips it; `make tier2` sets GPUFS_MAKEWORD_FULL=1.
func TestMakeWordMatchesMathRandFullRange(t *testing.T) {
	if os.Getenv("GPUFS_MAKEWORD_FULL") == "" {
		t.Skip("set GPUFS_MAKEWORD_FULL=1 to check MakeWord on [0, 2,100,000)")
	}
	checkWords(t, 0, 2_100_000)
}

// TestWordRandFallsBackToMathRand draws past wordDraws: with n = 2³⁰+1,
// Int31n rejects about half its draws, so the sequence runs through both
// the computed draws and the math/rand continuation, each rejection path
// included, and must equal rand.Rand.Intn throughout.
func TestWordRandFallsBackToMathRand(t *testing.T) {
	for _, seed := range []int64{12345, -7, 0, 1 << 40} {
		w := newWordRand(seed)
		want := rand.New(rand.NewSource(seed))
		for d, n := range []int{1<<30 + 1, 10, 26, 1 << 20, 1} {
			for j := 0; j < 20; j++ {
				if got, exp := w.intn(n), want.Intn(n); got != exp {
					t.Fatalf("seed %d: draw %d of intn(%d) = %d, math/rand gives %d", seed, d*20+j, n, got, exp)
				}
			}
		}
		if w.k <= wordDraws || w.src == nil {
			t.Fatalf("seed %d: %d draws never reached the math/rand fallback", seed, w.k)
		}
	}
}

func BenchmarkMakeWord(b *testing.B) {
	for _, arm := range []struct {
		name string
		make func(int) string
	}{{"jumpahead", MakeWord}, {"mathrand", makeWordRand}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = arm.make(1_000_000 + i%1_000_000)
			}
		})
	}
}
