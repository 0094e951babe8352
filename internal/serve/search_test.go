package serve

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// searchCount's reference is bytes.Count: the same leftmost, non-overlapping
// matches for every non-empty word.
func wantCount(buf []byte, word string) int64 {
	return int64(bytes.Count(buf, []byte(word)))
}

func TestSearchCountTable(t *testing.T) {
	for _, c := range []struct{ buf, word string }{
		{"aaa", "aa"},
		{"aaaa", "aa"},
		{"ababa", "aba"},
		{"abababab", "abab"},
		{"aaab", "aab"},
		{"xx zz", "zz"}, // a match ending at the last byte
		{"zz", "zz"},    // a match that is the whole buffer
		{"z", "zz"},     // a word longer than the buffer
		{"", "zz"},      // and an empty buffer
		{"", "z"},       // one-byte words, which go to bytes.Count whole
		{"zaz", "z"},
		{"abcabc", "c"},
		{"abcabc", "qb"}, // a first byte that never occurs
		{"lorem ipsum dolor sit amet dolor", "dolor"},
		// Either side of the loop's word-length limit: 31 bytes run the
		// loop, 32 go to bytes.Count whole, both overlapping themselves.
		{strings.Repeat("ab", 40), strings.Repeat("ab", 15) + "a"},
		{strings.Repeat("ab", 40), strings.Repeat("ab", 16)},
		// A word past bytealg.MaxLen whose candidates are 8 bytes apart.
		{strings.Repeat("accccccc", 300), strings.Repeat("accccccc", 125) + "b"},
		{strings.Repeat("accccccc", 130) + "b" + strings.Repeat("accccccc", 126) + "b", strings.Repeat("accccccc", 125) + "b"},
	} {
		if got, want := searchCount([]byte(c.buf), c.word), wantCount([]byte(c.buf), c.word); got != want {
			t.Errorf("searchCount(%q, %q) = %d, want %d", c.buf, c.word, got, want)
		}
	}
}

// TestSearchCountCutover: matches, then a run of false candidates long enough
// that the loop hands the rest to bytes.Count, then more matches. Sweeping
// the lengths moves the hand-off across the last matches' starts, so a
// hand-off that dropped a match or counted one twice would show.
func TestSearchCountCutover(t *testing.T) {
	for before := 0; before <= 8; before++ {
		for run := 0; run <= 96; run++ {
			buf := []byte(strings.Repeat("xab", before) + strings.Repeat("ac", run) + "aab" + strings.Repeat("ab zab", 5))
			if got, want := searchCount(buf, "ab"), wantCount(buf, "ab"); got != want {
				t.Fatalf("%d matches, %d false candidates: searchCount = %d, want %d", before, run, got, want)
			}
			if got, want := searchCount(buf, "aab"), wantCount(buf, "aab"); got != want {
				t.Fatalf("%d matches, %d false candidates: searchCount(aab) = %d, want %d", before, run, got, want)
			}
		}
	}
}

// TestSearchCountRandom draws buffers and words from a small alphabet, so
// overlaps, repeated first bytes and hand-offs are common. Long words, either
// side of the loop's limit and past bytealg.MaxLen, repeat a short unit, and
// their buffers are built from pieces of the word, so that matches and near
// misses are common too.
func TestSearchCountRandom(t *testing.T) {
	const alphabet = "aab z"
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	for i := 0; i < 100_000; i++ {
		buf, word := draw(rng.Intn(301)), string(draw(1+rng.Intn(5)))
		if got, want := searchCount(buf, word), wantCount(buf, word); got != want {
			t.Fatalf("searchCount(%q, %q) = %d, want %d", buf, word, got, want)
		}
	}
	for i := 0; i < 20_000; i++ {
		n := []int{29, 30, 31, 32, 33, 62, 63, 64, 65}[rng.Intn(9)]
		word := bytes.Repeat(draw(1+rng.Intn(3)), n)[:n]
		if rng.Intn(2) == 0 {
			word[n-1] = alphabet[rng.Intn(len(alphabet))]
		}
		var buf []byte
		for size := rng.Intn(600); len(buf) < size; {
			switch rng.Intn(3) {
			case 0:
				buf = append(buf, word...)
			case 1:
				buf = append(buf, word[:rng.Intn(n)]...)
			default:
				buf = append(buf, draw(rng.Intn(4))...)
			}
		}
		if got, want := searchCount(buf, string(word)), wantCount(buf, string(word)); got != want {
			t.Fatalf("searchCount(%q, %q) = %d, want %d", buf, word, got, want)
		}
	}
}

func FuzzSearchCount(f *testing.F) {
	f.Add([]byte("ababa"), "aba")
	f.Add([]byte("xx zz"), "zz")
	f.Add([]byte(strings.Repeat("ac", 64)+"aab"), "ab")
	f.Add([]byte("abc"), "c")
	f.Add([]byte(strings.Repeat("ab", 40)), strings.Repeat("ab", 15)+"a")
	f.Add([]byte(strings.Repeat("ab", 40)), strings.Repeat("ab", 16))
	f.Add([]byte(strings.Repeat("accccccc", 12)), strings.Repeat("accccccc", 8)+"b")
	f.Fuzz(func(t *testing.T, buf []byte, word string) {
		if word == "" {
			t.Skip("validateJob rejects an empty word")
		}
		if got, want := searchCount(buf, word), wantCount(buf, word); got != want {
			t.Fatalf("searchCount(%q, %q) = %d, want %d", buf, word, got, want)
		}
	})
}

var searchSink int64

// BenchmarkSearchCount times bytes.Count against searchCount over 64 KiB:
// text shaped like the serving benchmark's corpus (tokens of a..y, "zz"
// about one token in sixteen, so every 'z' starts a match), lorem text with
// "dolor" every 27 bytes, and adversarial words whose first byte is every
// byte of the buffer and whose rest never matches: 41 bytes, and 31, the
// longest word the loop takes. The last arm is a 1,001-byte word, past
// bytealg.MaxLen, whose first byte starts every 8-byte group of the buffer.
func BenchmarkSearchCount(b *testing.B) {
	const size = 64 << 10
	rng := rand.New(rand.NewSource(1))
	var shaped []byte
	for len(shaped) < size {
		if rng.Intn(16) == 0 {
			shaped = append(shaped, "zz"...)
		} else {
			for n := 2 + rng.Intn(8); n > 0; n-- {
				shaped = append(shaped, byte('a'+rng.Intn(25)))
			}
		}
		shaped = append(shaped, ' ')
	}
	arms := []struct {
		name string
		buf  []byte
		word string
	}{
		{"shaped", shaped[:size], "zz"},
		{"lorem", bytes.Repeat([]byte("lorem ipsum dolor sit amet "), size/27+1)[:size], "dolor"},
		{"adversarial", bytes.Repeat([]byte("a"), size), strings.Repeat("a", 40) + "b"},
		{"adversarial-31", bytes.Repeat([]byte("a"), size), strings.Repeat("a", 30) + "b"},
		{"long", bytes.Repeat([]byte("accccccc"), size/8), strings.Repeat("accccccc", 125) + "b"},
	}
	for _, a := range arms {
		for _, f := range []struct {
			name  string
			count func([]byte, string) int64
		}{{"bytes.Count", wantCount}, {"searchCount", searchCount}} {
			b.Run(a.name+"/"+f.name, func(b *testing.B) {
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					searchSink = f.count(a.buf, a.word)
				}
			})
		}
	}
}
