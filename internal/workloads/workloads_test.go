package workloads

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gpufs"
	"gpufs/internal/simtime/simtest"
)

const testScale = 1.0 / 256

func newSystem(t *testing.T) *gpufs.System {
	t.Helper()
	cfg := gpufs.ScaledConfig(testScale)
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := MakeDictionary(500)
	got := DecodeDictionary(d.Encode())
	if !reflect.DeepEqual(d.Words, got.Words) {
		t.Fatalf("dictionary round trip mismatch: %d words in, %d out", len(d.Words), len(got.Words))
	}
	seen := make(map[string]bool)
	for _, w := range d.Words {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
		if len(w) >= WordAlign {
			t.Fatalf("word %q exceeds alignment", w)
		}
	}
}

func TestGrepAgreement(t *testing.T) {
	simtest.OneP(t) // the shape check at the end compares two free-running makespans
	sys := newSystem(t)
	dict := MakeDictionary(200)
	if err := sys.WriteHostFile("/grep/dict.txt", dict.Encode()); err != nil {
		t.Fatal(err)
	}
	tree, err := MakeTree(sys.Host(), sys.HostClock(), TreeSpec{
		Dir:        "/grep/src",
		NumFiles:   40,
		TotalBytes: 1 << 20,
		Text:       TextSpec{Dict: dict, DictFraction: 0.5, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := sys.Config()
	gres, err := GrepGPUfs(sys, 0, "/grep/dict.txt", tree.ListPath, "/grep/out.txt", cfg.GrepGPURate, 8, 128, 0, 0)
	if err != nil {
		t.Fatalf("GrepGPUfs: %v", err)
	}
	cres, err := GrepCPU(sys.Host(), dict, tree.Files, cfg.NumCPUCores, cfg.GrepCPURate)
	if err != nil {
		t.Fatalf("GrepCPU: %v", err)
	}
	vres, err := GrepVanillaGPU(sys, 1, dict, tree.Files, cfg.GrepGPURate, 8, 128, 1<<20)
	if err != nil {
		t.Fatalf("GrepVanillaGPU: %v", err)
	}

	if !reflect.DeepEqual(gres.Counts, cres.Counts) {
		t.Errorf("GPUfs and CPU grep disagree: %d vs %d entries", len(gres.Counts), len(cres.Counts))
	}
	if !reflect.DeepEqual(gres.Counts, vres.Counts) {
		t.Errorf("GPUfs and vanilla grep disagree: %d vs %d entries", len(gres.Counts), len(vres.Counts))
	}
	if len(gres.Counts) == 0 {
		t.Errorf("no matches found; generator should inject dictionary words")
	}
	if gres.Elapsed <= 0 || cres.Elapsed <= 0 || vres.Elapsed <= 0 {
		t.Errorf("non-positive elapsed times: %v %v %v", gres.Elapsed, cres.Elapsed, vres.Elapsed)
	}
	// Shape check: the GPU should beat the 8-core CPU clearly.
	if cres.Elapsed < gres.Elapsed {
		t.Errorf("CPU grep (%v) should be slower than GPU grep (%v)", cres.Elapsed, gres.Elapsed)
	}
}

func TestImageSearchAgainstTruth(t *testing.T) {
	simtest.OneP(t)
	sys := newSystem(t)
	w, err := MakeImageWorkload(sys.Host(), sys.HostClock(), ImageSpec{
		Dir:      "/img",
		DBImages: []int{120, 100, 130},
		Queries:  24,
		Plan:     MatchRandom,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}

	gres, err := ImageSearchGPUfs(sys, w, 1, 8, 128, "/img/out.bin")
	if err != nil {
		t.Fatalf("ImageSearchGPUfs: %v", err)
	}
	if !reflect.DeepEqual(gres.Matches, w.Truth) {
		t.Errorf("GPUfs matches disagree with ground truth\n got: %v\nwant: %v", gres.Matches, w.Truth)
	}

	cres, err := ImageSearchCPU(sys.Host(), w, 8, sys.Config().CPUFlops)
	if err != nil {
		t.Fatalf("ImageSearchCPU: %v", err)
	}
	if !reflect.DeepEqual(cres.Matches, w.Truth) {
		t.Errorf("CPU matches disagree with ground truth")
	}
	if cres.Elapsed < gres.Elapsed {
		t.Errorf("CPU (%v) should be slower than one GPU (%v)", cres.Elapsed, gres.Elapsed)
	}
}

func TestImageSearchNoMatchScansEverything(t *testing.T) {
	sys := newSystem(t)
	w, err := MakeImageWorkload(sys.Host(), sys.HostClock(), ImageSpec{
		Dir:      "/img2",
		DBImages: []int{60, 60},
		Queries:  8,
		Plan:     MatchNone,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ImageSearchGPUfs(sys, w, 1, 4, 128, "/img2/out.bin")
	if err != nil {
		t.Fatal(err)
	}
	for q, m := range res.Matches {
		if m != NoMatch {
			t.Errorf("query %d unexpectedly matched %v", q, m)
		}
	}
}

func TestImageSearchMultiGPUFasterAndConsistent(t *testing.T) {
	sys := newSystem(t)
	// Enough queries that comparison arithmetic dominates the fixed
	// per-GPU database transfer, as in the paper's configuration.
	spec := ImageSpec{
		Dir:      "/img3",
		DBImages: []int{160, 160},
		Queries:  512,
		Plan:     MatchNone,
		Seed:     11,
	}
	w, err := MakeImageWorkload(sys.Host(), sys.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ImageSearchGPUfs(sys, w, 1, 8, 128, "/img3/out1.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh system so buffer caches start cold for the multi-GPU run too.
	sys2 := newSystem(t)
	if _, err := MakeImageWorkload(sys2.Host(), sys2.HostClock(), spec); err != nil {
		t.Fatal(err)
	}
	four, err := ImageSearchGPUfs(sys2, w, 4, 8, 128, "/img3/out4.bin")
	if err != nil {
		t.Fatal(err)
	}
	if four.Elapsed >= one.Elapsed {
		t.Errorf("4 GPUs (%v) should beat 1 GPU (%v)", four.Elapsed, one.Elapsed)
	}
	if !reflect.DeepEqual(one.Matches, four.Matches) {
		t.Errorf("single- and multi-GPU results disagree")
	}
}

func TestMatVecAgreement(t *testing.T) {
	sys := newSystem(t)
	const rows, cols = 48, 2048
	f, err := MakeMatVec(sys.Host(), sys.HostClock(), "/mv", rows, cols, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatVecCPUReference(sys.Host(), sys.HostClock(), f)
	if err != nil {
		t.Fatal(err)
	}

	gres, err := MatVecGPUfs(sys, 0, f, 8, 256)
	if err != nil {
		t.Fatalf("MatVecGPUfs: %v", err)
	}
	for r := range want {
		if math.Abs(float64(gres.Y[r]-want[r])) > 1e-3 {
			t.Fatalf("GPUfs row %d: got %v want %v", r, gres.Y[r], want[r])
		}
	}
	// The GPUfs version also persisted the result file.
	out, err := sys.ReadHostFile(f.OutPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows*4 {
		t.Fatalf("output file %d bytes, want %d", len(out), rows*4)
	}

	cres, err := MatVecCUDA(sys, 1, f, f.MatrixBytes/4, 2, 8, 256)
	if err != nil {
		t.Fatalf("MatVecCUDA: %v", err)
	}
	for r := range want {
		if math.Abs(float64(cres.Y[r]-want[r])) > 1e-3 {
			t.Fatalf("CUDA row %d: got %v want %v", r, cres.Y[r], want[r])
		}
	}
}

func TestMicroSequentialShapes(t *testing.T) {
	simtest.OneP(t)
	sys := newSystem(t)
	cfgv := sys.Config()
	size := cfgv.ScaleBytes(1800 << 20)
	if err := MakeDataFile(sys.Host(), sys.HostClock(), "/micro/seq.bin", size, 1); err != nil {
		t.Fatal(err)
	}

	gp, err := SeqReadGPUfs(sys, 0, "/micro/seq.bin", size, 8, 128)
	if err != nil {
		t.Fatalf("SeqReadGPUfs: %v", err)
	}
	pipe, err := SeqReadCUDAPipeline(sys, 1, "/micro/seq.bin", size, 256<<10)
	if err != nil {
		t.Fatalf("SeqReadCUDAPipeline: %v", err)
	}
	whole, err := SeqReadWholeFile(sys, 2, "/micro/seq.bin", size)
	if err != nil {
		t.Fatalf("SeqReadWholeFile: %v", err)
	}

	if gp.Throughput <= 0 || pipe.Throughput <= 0 || whole.Throughput <= 0 {
		t.Fatalf("non-positive throughputs: %v %v %v", gp.Throughput, pipe.Throughput, whole.Throughput)
	}
	// Figure 4 shape: pipelining beats the whole-file transfer; GPUfs at a
	// healthy page size lands near the pipeline.
	if pipe.Throughput <= whole.Throughput {
		t.Errorf("pipeline (%v) should beat whole-file (%v)", pipe.Throughput, whole.Throughput)
	}
	if gp.Throughput < whole.Throughput {
		t.Errorf("GPUfs (%v) should beat whole-file (%v) at default page size", gp.Throughput, whole.Throughput)
	}
}

func TestCacheHitLockFreeBeatsLocked(t *testing.T) {
	simtest.OneP(t)
	size := int64(8 << 20)
	run := func(forceLocked bool) *MicroResult {
		cfg := gpufs.ScaledConfig(testScale)
		cfg.ForceLockedTraversal = forceLocked
		sys, err := gpufs.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := MakeDataFile(sys.Host(), sys.HostClock(), "/micro/hit.bin", size, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := SeqReadGPUfs(sys, 0, "/micro/hit.bin", size, 8, 128); err != nil {
			t.Fatal(err)
		}
		res, err := CacheHitGPUfs(sys, 0, "/micro/hit.bin", size, 16, 128, 1<<20, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(false)
	locked := run(true)
	if free.Elapsed >= locked.Elapsed {
		t.Errorf("lock-free (%v) should beat locked traversal (%v)", free.Elapsed, locked.Elapsed)
	}
}

func TestCorpusDeterminism(t *testing.T) {
	// Same spec, same bytes — experiments must be reproducible.
	a := newSystem(t)
	b := newSystem(t)
	spec := TreeSpec{
		Dir: "/det", NumFiles: 12, TotalBytes: 64 << 10,
		Text: TextSpec{Dict: MakeDictionary(50), DictFraction: 0.5, Seed: 99},
	}
	ta, err := MakeTree(a.Host(), a.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := MakeTree(b.Host(), b.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Files) != len(tb.Files) || ta.Bytes != tb.Bytes {
		t.Fatalf("non-deterministic tree shape")
	}
	for i := range ta.Files {
		ca, _ := a.ReadHostFile(ta.Files[i])
		cb, _ := b.ReadHostFile(tb.Files[i])
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("file %d differs between identical generations", i)
		}
	}
	// The list file exists and names every file.
	list, err := a.ReadHostFile(ta.ListPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(parseFileList(list)); got != len(ta.Files) {
		t.Fatalf("list has %d entries, tree %d", got, len(ta.Files))
	}
}

func TestCorpusSeedByteIdenticalAcrossSystems(t *testing.T) {
	// Every generator must produce byte-identical inputs on two
	// independently built Systems from the same seed — the property the
	// serving soaks and bench comparisons lean on.
	a := newSystem(t)
	b := newSystem(t)

	da, db := MakeDictionary(120), MakeDictionary(120)
	if !reflect.DeepEqual(da.Encode(), db.Encode()) {
		t.Fatalf("MakeDictionary not deterministic")
	}
	spec := TextSpec{Dict: da, DictFraction: 0.6, Seed: 42}
	if !reflect.DeepEqual(MakeText(16<<10, spec), MakeText(16<<10, TextSpec{Dict: db, DictFraction: 0.6, Seed: 42})) {
		t.Fatalf("MakeText not deterministic")
	}

	for _, sys := range []*gpufs.System{a, b} {
		if err := MakeDataFile(sys.Host(), sys.HostClock(), "/det/data.bin", 32<<10, 7); err != nil {
			t.Fatal(err)
		}
		if err := sys.WriteHostFile("/det/text.txt", MakeText(8<<10, spec)); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/det/data.bin", "/det/text.txt"} {
		ca, err := a.ReadHostFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.ReadHostFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s differs between identically seeded systems", path)
		}
	}
}

func TestImageWorkloadDeterminism(t *testing.T) {
	a := newSystem(t)
	b := newSystem(t)
	spec := ImageSpec{Dir: "/det", DBImages: []int{40, 40}, Queries: 10, Plan: MatchRandom, Seed: 5}
	wa, err := MakeImageWorkload(a.Host(), a.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := MakeImageWorkload(b.Host(), b.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wa.Truth, wb.Truth) || !reflect.DeepEqual(wa.Queries, wb.Queries) {
		t.Fatalf("image workload not deterministic")
	}
}

func TestFirstPagePlanTerminatesEarly(t *testing.T) {
	sys := newSystem(t)
	spec := ImageSpec{Dir: "/fp", DBImages: []int{200, 200}, Queries: 64, Plan: MatchFirstPage, Seed: 7}
	w, err := MakeImageWorkload(sys.Host(), sys.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTime()
	first, err := ImageSearchGPUfs(sys, w, 1, 8, 128, "/fp/out.bin")
	if err != nil {
		t.Fatal(err)
	}
	for q, m := range first.Matches {
		if m != (ImageMatch{DB: 0, Index: 0}) {
			t.Fatalf("query %d matched %v, want db0[0]", q, m)
		}
	}

	sys2 := newSystem(t)
	spec.Plan = MatchNone
	w2, err := MakeImageWorkload(sys2.Host(), sys2.HostClock(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sys2.ResetTime()
	full, err := ImageSearchGPUfs(sys2, w2, 1, 8, 128, "/fp/out.bin")
	if err != nil {
		t.Fatal(err)
	}
	if first.Elapsed*4 > full.Elapsed {
		t.Fatalf("first-page matches (%v) should terminate far earlier than a full scan (%v)",
			first.Elapsed, full.Elapsed)
	}
}

func TestSeqReadGreadMatchesGmmapShape(t *testing.T) {
	sys := newSystem(t)
	cfgv := sys.Config()
	size := cfgv.ScaleBytes(512 << 20)
	if err := MakeDataFile(sys.Host(), sys.HostClock(), "/sg.bin", size, 4); err != nil {
		t.Fatal(err)
	}
	sys.ResetTime()
	gr, err := SeqReadGPUfsGread(sys, 0, "/sg.bin", size, 8, 128, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Throughput <= 0 {
		t.Fatalf("no throughput")
	}
}

func TestReopenStormCounts(t *testing.T) {
	sys := newSystem(t)
	files := make([]string, 8)
	for i := range files {
		files[i] = fmt.Sprintf("/storm/f%d", i)
		if err := MakeDataFile(sys.Host(), sys.HostClock(), files[i], 8<<10, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sys.ResetTime()
	res, err := ReopenStorm(sys, 0, files, 4, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed")
	}
	st := sys.GPU(0).Stats()
	if st.Opens != 8*3 {
		t.Fatalf("opens = %d, want 24", st.Opens)
	}
	// Rounds after the first are served without host opens.
	if st.HostOpens != 8 {
		t.Fatalf("host opens = %d, want 8", st.HostOpens)
	}
}

func TestGrepShardingCoversDictionary(t *testing.T) {
	// Every (file, shard) unit is owned by exactly one worker, so no
	// match is counted twice or dropped.
	for _, workers := range []int{3, 8, 64, 112} {
		for fi := 0; fi < 5; fi++ {
			owned := make([]int, GrepShards)
			for w := 0; w < workers; w++ {
				for _, s := range shardsOf(fi, w, workers) {
					owned[s]++
				}
			}
			for s, n := range owned {
				if n != 1 {
					t.Fatalf("workers=%d file=%d shard %d owned %d times", workers, fi, s, n)
				}
			}
		}
	}
}

func TestShardWork(t *testing.T) {
	if got := shardWork(1000, 640, GrepShards); got != 640000 {
		t.Fatalf("full dictionary: %d", got)
	}
	if got := shardWork(1000, 640, 1); got != 10000 {
		t.Fatalf("one shard: %d", got)
	}
}

func TestVanillaGrepOutputOverflowCrashes(t *testing.T) {
	// The vanilla version pre-allocates its output buffer and the kernel
	// crashes on overflow (§5.2.2) — the fragility GPUfs removes.
	sys := newSystem(t)
	dict := MakeDictionary(100)
	tree, err := MakeTree(sys.Host(), sys.HostClock(), TreeSpec{
		Dir: "/ovf", NumFiles: 10, TotalBytes: 256 << 10,
		Text: TextSpec{Dict: dict, DictFraction: 0.9, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = GrepVanillaGPU(sys, 0, dict, tree.Files, 1e9, 8, 128, 64 /* absurdly small */)
	if err == nil {
		t.Fatalf("overflowing the vanilla output buffer must crash the kernel")
	}
}

func TestMatVecPageRowAlignmentGuard(t *testing.T) {
	sys := newSystem(t) // page 256K
	// 3000 floats per row = 12000 bytes: neither divides nor is divided
	// by the page size.
	f, err := MakeMatVec(sys.Host(), sys.HostClock(), "/mvbad", 4, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MatVecGPUfs(sys, 0, f, 2, 64); err == nil {
		t.Fatalf("misaligned row size must be rejected")
	}
}

func TestMakeTextUsesDictionary(t *testing.T) {
	dict := MakeDictionary(20)
	text := MakeText(32<<10, TextSpec{Dict: dict, DictFraction: 1.0, Seed: 1})
	set := make(map[string]bool, len(dict.Words))
	for _, w := range dict.Words {
		set[w] = true
	}
	inDict, total := 0, 0
	tokenize(text, func(w []byte) {
		total++
		if set[string(w)] {
			inDict++
		}
	})
	if total == 0 || inDict*10 < total*9 {
		t.Fatalf("DictFraction=1 text should be ~all dictionary words: %d/%d", inDict, total)
	}
	// And a fraction of 0 should produce ~none.
	text = MakeText(32<<10, TextSpec{Dict: dict, DictFraction: 0, Seed: 1})
	inDict, total = 0, 0
	tokenize(text, func(w []byte) {
		total++
		if set[string(w)] {
			inDict++
		}
	})
	if inDict*10 > total {
		t.Fatalf("DictFraction=0 text too rich in dictionary words: %d/%d", inDict, total)
	}
}

func TestTreeSpecValidation(t *testing.T) {
	sys := newSystem(t)
	_, err := MakeTree(sys.Host(), sys.HostClock(), TreeSpec{Dir: "/bad", NumFiles: 0})
	if err == nil {
		t.Fatalf("zero-file tree accepted")
	}
}

func TestImageSpecValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := MakeImageWorkload(sys.Host(), sys.HostClock(), ImageSpec{Dir: "/x"}); err == nil {
		t.Fatalf("empty image spec accepted")
	}
}
