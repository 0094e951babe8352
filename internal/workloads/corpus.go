// Package workloads provides the datasets, applications, and baseline
// implementations of the GPUfs evaluation (§5):
//
//   - deterministic synthetic corpora standing in for the paper's inputs
//     (the Linux 3.3.1 source tree, the complete works of Shakespeare, a
//     58,000-word modern-English dictionary, and randomly generated image
//     databases);
//   - the two applications — approximate image matching and exact string
//     matching ("grep -w") — each in a GPUfs version, a vanilla-GPU
//     version, and an 8-core CPU version;
//   - the microbenchmark kernels (sequential read, random read, cache-hit
//     read, matrix–vector product) and their hand-coded CUDA baselines.
//
// Real data flows through every path (matches are found by real byte
// comparison); virtual time is charged at rates calibrated to the paper's
// measurements, so benchmark *shapes* reproduce while Go-side compute stays
// cheap.
package workloads

import (
	"fmt"
	"math/rand"

	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
)

// letters used to synthesize word-like tokens.
const letters = "abcdefghijklmnopqrstuvwxyz"

// WordAlign is the dictionary entry alignment: the paper reformats the
// dictionary so every word sits on a 32-byte boundary (§5.2.2); no word
// exceeds that length.
const WordAlign = 32

// MakeWord deterministically generates the i'th synthetic word: 3-12
// lowercase letters, unique per index. Its letters are the draws of
// rand.New(rand.NewSource(int64(i)*2654435761 + 12345)), computed by
// wordRand without seeding the source.
func MakeWord(i int) string {
	rng := newWordRand(int64(i)*2654435761 + 12345)
	n := 3 + rng.intn(10)
	var buf [2 * WordAlign]byte // 12 letters and a suffix of at most 14
	b := buf[:0]
	for j := 0; j < n; j++ {
		b = append(b, letters[rng.intn(len(letters))])
	}
	// Suffix with a base-26 encoding of i to guarantee uniqueness.
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

// wordDraws is how many draws of a freshly seeded source wordRand computes
// directly. A word takes one draw for its length and 3-12 for its letters,
// plus Int31n's rejections (fewer than one draw in 10⁸).
const wordDraws = 32

// lehmerM is the modulus of the Lehmer generator math/rand's Seed steps,
// x ← 48271·x mod 2³¹−1.
const lehmerM = 1<<31 - 1

// wordRand yields the draws of rand.New(rand.NewSource(seed)) in order.
// Draw k (from 0) of a freshly seeded source is vec[333−k] + vec[606−k],
// and Seed sets vec[i] from the (21+3i)'th to (23+3i)'th Lehmer steps from
// the seed, XOR rngCooked[i]. With the jump multipliers 48271^(21+3i+j)
// mod 2³¹−1, each draw is six multiply-mods, where Seed takes 1,841 steps
// and fills all 607 words. Past wordDraws draws it continues on math/rand.
type wordRand struct {
	seed int64
	x    uint64 // the seed as Seed reduces it, in [1, 2³¹−1)
	k    int    // draws taken
	src  rand.Source
}

func newWordRand(seed int64) wordRand {
	x := seed % lehmerM
	if x < 0 {
		x += lehmerM
	}
	if x == 0 {
		x = 89482311
	}
	return wordRand{seed: seed, x: uint64(x)}
}

// int63 is the source's next Int63.
func (w *wordRand) int63() int64 {
	k := w.k
	w.k++
	if k < wordDraws {
		i := wordDraws - 1 - k // vec[302+i] and vec[575+i]
		return (w.vec(rngCooked302[i], &wordJump[0][i]) + w.vec(rngCooked575[i], &wordJump[1][i])) & (1<<63 - 1)
	}
	if w.src == nil {
		w.src = rand.NewSource(w.seed)
		for j := 0; j < wordDraws; j++ {
			w.src.Int63()
		}
	}
	return w.src.Int63()
}

// vec is one entry of the seeded state: three Lehmer steps, XOR cooked.
func (w *wordRand) vec(cooked int64, m *[3]uint64) int64 {
	x1, x2, x3 := w.x*m[0]%lehmerM, w.x*m[1]%lehmerM, w.x*m[2]%lehmerM
	return int64(x1<<40^x2<<20^x3) ^ cooked
}

// intn is rand.Rand.Intn for n in [1, 2³¹): Int31n over the top 31 bits
// of each draw. Int31n masks when n is a power of two, which keeps the
// same bits as the modulo here, and then nothing is rejected.
func (w *wordRand) intn(n int) int {
	max := int64(1<<31 - 1 - (1<<31)%uint32(n))
	v := w.int63() >> 32
	for v > max {
		v = w.int63() >> 32
	}
	return int(v % int64(n))
}

// wordJump[h][i][j] is 48271^(21+3e+j) mod 2³¹−1 for state entry
// e = 302+i (h = 0) or e = 575+i (h = 1).
var wordJump = func() (m [2][wordDraws][3]uint64) {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = p * 48271 % lehmerM
	}
	for e := 0; e < 607; e++ {
		for j := 0; j < 3; j++ {
			p = p * 48271 % lehmerM
			switch {
			case e >= 575:
				m[1][e-575][j] = p
			case e >= 302 && e < 302+wordDraws:
				m[0][e-302][j] = p
			}
		}
	}
	return m
}()

// rngCooked302 and rngCooked575 are rngCooked[302:334] and
// rngCooked[575:607], the only entries the first wordDraws draws read,
// copied from Go's src/math/rand/rng.go (Copyright 2009 The Go Authors;
// BSD-style license, see Go's LICENSE file).
var rngCooked302 = [wordDraws]int64{
	8785882556301281247, -3074039370013608197, -637529855400303673, 6137678347805511274,
	-7152924852417805802, 5708223427705576541, -3223714144396531304, 4358391411789012426,
	325123008708389849, 6837621693887290924, 4843721905315627004, -3212720814705499393,
	-3825019837890901156, 4602025990114250980, 1044646352569048800, 9106614159853161675,
	-8394115921626182539, -4304087667751778808, 2681532557646850893, 3681559472488511871,
	-3915372517896561773, -2889241648411946534, -6564663803938238204, -8060058171802589521,
	581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
	220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
}

var rngCooked575 = [wordDraws]int64{
	2278447439451174845, 3625338785743880657, 6477479539006708521, 8976185375579272206,
	-3712000482142939688, 1326024180520890843, 7537449876596048829, 5464680203499696154,
	3189671183162196045, 6346751753565857109, -8982212049534145501, -6127578587196093755,
	-245039190118465649, -6320577374581628592, 7208698530190629697, 7276901792339343736,
	-7490986807540332668, 4133292154170828382, 2918308698224194548, -7703910638917631350,
	-3929437324238184044, -4300543082831323144, -6344160503358350167, 5896236396443472108,
	-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
	-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
}

// Dictionary is a word list in the paper's aligned on-disk format.
type Dictionary struct {
	Words []string
}

// MakeDictionary generates n unique words.
func MakeDictionary(n int) *Dictionary {
	d := &Dictionary{Words: make([]string, n)}
	for i := 0; i < n; i++ {
		d.Words[i] = MakeWord(i)
	}
	return d
}

// Encode renders the dictionary with every word zero-padded to a 32-byte
// boundary, the format the GPU parses (§5.2.2).
func (d *Dictionary) Encode() []byte {
	out := make([]byte, len(d.Words)*WordAlign)
	for i, w := range d.Words {
		copy(out[i*WordAlign:], w)
	}
	return out
}

// DecodeDictionary parses the aligned format back into words.
func DecodeDictionary(data []byte) *Dictionary {
	d := &Dictionary{}
	for off := 0; off+WordAlign <= len(data); off += WordAlign {
		end := off
		for end < off+WordAlign && data[end] != 0 {
			end++
		}
		if end > off {
			d.Words = append(d.Words, string(data[off:end]))
		}
	}
	return d
}

// TextSpec controls synthetic text generation.
type TextSpec struct {
	// Dict supplies the vocabulary; tokens are drawn from its words
	// (plus filler symbols) with a Zipf-flavoured skew, so realistic
	// match-count distributions emerge.
	Dict *Dictionary
	// DictFraction is the fraction of tokens drawn from the dictionary;
	// the rest are out-of-vocabulary tokens.
	DictFraction float64
	// Seed makes the text deterministic.
	Seed int64
}

// MakeText generates approximately size bytes of word text.
func MakeText(size int64, spec TextSpec) []byte {
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(len(spec.Dict.Words)-1))
	out := make([]byte, 0, size+16)
	for int64(len(out)) < size {
		if rng.Float64() < spec.DictFraction {
			out = append(out, spec.Dict.Words[zipf.Uint64()]...)
		} else {
			out = append(out, MakeWord(1_000_000+rng.Intn(1_000_000))...)
		}
		if rng.Intn(12) == 0 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	return out[:size]
}

// TreeSpec controls synthetic source-tree generation, shaped like the
// paper's Linux 3.3.1 checkout: ~33,000 mostly-small files totalling
// 524 MB ("few kilobytes on average").
type TreeSpec struct {
	Dir        string
	NumFiles   int
	TotalBytes int64
	Text       TextSpec
	// DirFanout is how many files share a directory.
	DirFanout int
}

// Tree is a generated corpus: the file list in generation order plus the
// path of the list file (the paper specifies the input file list in a
// file, §5.2.2).
type Tree struct {
	Files    []string
	ListPath string
	Bytes    int64
}

// MakeTree writes a synthetic source tree into fs. File sizes follow a
// skewed distribution (most small, a few large) normalized to TotalBytes.
func MakeTree(fs *hostfs.FS, clock *simtime.Clock, spec TreeSpec) (*Tree, error) {
	if spec.DirFanout <= 0 {
		spec.DirFanout = 64
	}
	if spec.NumFiles <= 0 {
		return nil, fmt.Errorf("workloads: tree needs at least one file")
	}
	rng := rand.New(rand.NewSource(spec.Text.Seed + 7))

	// Draw raw sizes from a lognormal-ish skew, then normalize.
	raw := make([]float64, spec.NumFiles)
	var sum float64
	for i := range raw {
		v := rng.ExpFloat64()*rng.ExpFloat64() + 0.05
		raw[i] = v
		sum += v
	}

	t := &Tree{}
	mode := hostfs.ModeRead | hostfs.ModeWrite
	var list []byte
	for i := range raw {
		size := int64(raw[i] / sum * float64(spec.TotalBytes))
		if size < 64 {
			size = 64
		}
		dir := fmt.Sprintf("%s/d%03d", spec.Dir, i/spec.DirFanout)
		if i%spec.DirFanout == 0 {
			if err := fs.MkdirAll(dir, hostfs.ModeDir|mode); err != nil {
				return nil, err
			}
		}
		path := fmt.Sprintf("%s/f%05d.c", dir, i)
		sub := spec.Text
		sub.Seed = spec.Text.Seed ^ int64(i)*0x9e3779b9
		data := MakeText(size, sub)
		if err := fs.WriteFile(clock, path, data, mode); err != nil {
			return nil, err
		}
		t.Files = append(t.Files, path)
		t.Bytes += size
		list = append(list, path...)
		list = append(list, '\n')
	}

	t.ListPath = spec.Dir + "/filelist.txt"
	if err := fs.WriteFile(clock, t.ListPath, list, mode); err != nil {
		return nil, err
	}
	return t, nil
}
