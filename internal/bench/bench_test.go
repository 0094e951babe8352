package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"gpufs/internal/params"
	"gpufs/internal/simtime/simtest"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "Table X",
		Title:  "demo",
		Header: []string{"a", "bb", "ccc"},
	}
	tb.AddRow("1", "22", "333")
	tb.AddRow("longer", "2", "3")
	tb.AddNote("hello %d", 7)

	out := tb.String()
	if !strings.Contains(out, "Table X — demo") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "note: hello 7") {
		t.Fatalf("missing note: %q", out)
	}
	lines := strings.Split(out, "\n")
	// Header and all rows must align: the second column starts at the
	// same offset everywhere.
	idx := strings.Index(lines[1], "bb")
	if idx < 0 {
		t.Fatalf("header: %q", lines[1])
	}
	if lines[3][idx:idx+2] != "22" {
		t.Fatalf("row misaligned: %q", lines[3])
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := sizeLabel(16 << 10); got != "16K" {
		t.Fatalf("sizeLabel 16K: %q", got)
	}
	if got := sizeLabel(2 << 20); got != "2M" {
		t.Fatalf("sizeLabel 2M: %q", got)
	}
	if got := sizeLabel(3 << 30); got != "3G" {
		t.Fatalf("sizeLabel 3G: %q", got)
	}
	if got := sizeLabel(1000); got != "1000" {
		t.Fatalf("sizeLabel odd: %q", got)
	}
	if got := mbps(1e9); got != "1000" {
		t.Fatalf("mbps: %q", got)
	}
	if got := pow2AtMost(100); got != 64 {
		t.Fatalf("pow2AtMost: %d", got)
	}
	if got := pow2AtMost(1); got != 1 {
		t.Fatalf("pow2AtMost(1): %d", got)
	}
}

// numericCell parses a leading float out of a cell.
func numericCell(t *testing.T, s string) float64 {
	t.Helper()
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// TestFig4ShapeTiny runs the Figure 4 harness at a tiny scale and checks
// the structural claims that must hold at any scale. The scale is the
// smallest power of two whose file (32 MiB) spans more than one 16M page:
// below it the file is a single page, which one block reads while the rest
// idle and the pipeline has no chunks to overlap, so the last row measures
// neither. It compares free-running multi-block timelines, so until virtual
// time is a function of the inputs (ROADMAP item 1) it runs at one P: at two
// cores the 16K cell read 2983–5086 MB/s over six runs, three of them above
// the 16M cell's 4072; at one P it reads 3321 every run.
func TestFig4ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	simtest.OneP(t)
	tb, err := Fig4(1.0 / 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(pageSweep) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	small := numericCell(t, tb.Rows[0][1])
	big := numericCell(t, tb.Rows[len(tb.Rows)-1][1])
	if big <= small {
		t.Fatalf("GPUfs throughput must grow with page size: %v -> %v", small, big)
	}
	// At large pages GPUfs is within 25%% of the pipeline.
	pipe := numericCell(t, tb.Rows[len(tb.Rows)-1][2])
	if big < 0.75*pipe {
		t.Fatalf("GPUfs %v too far below pipeline %v at 16M pages", big, pipe)
	}
}

// TestFig7PrototypeMatchesPaper checks Figure 7 against the paper's numbers,
// not just its shape: under the prototype a lock-free cache hit copies the
// page as the raw baseline does, so it reaches 85-88% of raw bandwidth and
// runs ~3x faster than the locked traversal. A zero-copy hit charged one
// memory pass where raw charges two and read 1.5x raw.
func TestFig7PrototypeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	k := newFig7Kernel(1.0 / 256)
	raw, err := k.raw()
	if err != nil {
		t.Fatal(err)
	}
	free, err := k.hit(256<<10, false)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := k.hit(256<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	freeFrac := float64(raw.Elapsed) / float64(free.Elapsed)
	lockedFrac := float64(raw.Elapsed) / float64(locked.Elapsed)
	t.Logf("of raw: lock-free %.2f, locked %.2f", freeFrac, lockedFrac)
	if freeFrac < 0.80 || freeFrac > 0.92 {
		t.Errorf("lock-free hit reads %.2f of raw bandwidth, want 0.80-0.92 (the paper: 0.85-0.88)", freeFrac)
	}
	if freeFrac < 2.5*lockedFrac {
		t.Errorf("lock-free hit (%.2f of raw) is not 2.5x the locked one (%.2f)", freeFrac, lockedFrac)
	}
}

// TestTable3ShapeTiny checks multi-GPU scaling monotonicity at tiny scale, on
// the unrounded times: at this scale two cells can print as the same
// hundredth. It compares free-running multi-block timelines, so until virtual
// time is a function of the inputs (ROADMAP item 1) it runs at one P: at two,
// 3 of 15 runs had 4 GPUs no faster than 1, or 1 GPU no faster than the CPU.
func TestTable3ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	simtest.OneP(t)
	tb, times, err := table3(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(tb.Rows) {
		t.Fatalf("%d rows rendered from %d rows of times", len(tb.Rows), len(times))
	}
	for i, tm := range times {
		name := tb.Rows[i][0]
		if one, four := tm.gpus[0], tm.gpus[3]; four >= one {
			t.Fatalf("%s: 4 GPUs (%v) not faster than 1 (%v)", name, four, one)
		}
		if one := tm.gpus[0]; one >= tm.cpu {
			t.Fatalf("%s: 1 GPU (%v) not faster than CPUx8 (%v)", name, one, tm.cpu)
		}
	}
}

// TestAblationShapeTiny checks the ablation harness's directional claims.
func TestAblationShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	tb, err := Ablation(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("ablation rows: %d", len(tb.Rows))
	}
	// Fast reopen must win on the reopen-storm row.
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.Contains(last[3], "slower without") {
		t.Fatalf("fast-reopen row: %v", last)
	}
}

// TestReadaheadShapeTiny checks the read-ahead policy table's directional
// claims: adaptive wins sequential streams outright (coalescing), follows
// a fixed stride without fetching the pages between, and issues nothing on
// random reads past the head the file's open carries.
func TestReadaheadShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	tb, err := Readahead(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("readahead rows: %d", len(tb.Rows))
	}
	usedPct := func(cell string) float64 {
		var issued int64
		var pct float64
		if _, err := fmt.Sscanf(cell, "%d (%f%%)", &issued, &pct); err != nil {
			t.Fatalf("prefetch cell %q: %v", cell, err)
		}
		return pct
	}
	seq, stride, random := tb.Rows[0], tb.Rows[1], tb.Rows[2]
	// Sequential: coalesced speculation must clearly beat no read-ahead.
	if ad, off := numericCell(t, seq[1]), numericCell(t, seq[2]); ad < 1.5*off {
		t.Fatalf("sequential adaptive %v not >1.5x off %v", ad, off)
	}
	// Strided: the detector speculates along the stride, so most of what
	// it fetches is read (a window that ignored the stride would fetch the
	// three skipped pages in four for nothing: 25%).
	if ap := usedPct(stride[3]); ap <= 50 {
		t.Fatalf("stride adaptive used%% %v: the detector is not following the stride", ap)
	}
	// Random: the confidence gate keeps the detector silent past the open's
	// one counted span, 128 KiB of Readahead's page size.
	base := params.Scaled(1.0 / 256)
	ps := pow2AtMost(base.ScaleBytes(256 << 10))
	if ps < 4<<10 {
		ps = 4 << 10
	}
	if issued := numericCell(t, random[3]); issued != float64(128<<10/ps) {
		t.Fatalf("random adaptive speculated %v pages, want the open's %d", issued, 128<<10/ps)
	}
}

func TestFig5ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	simtest.OneP(t)
	tb, err := Fig5(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	// The both-excluded column (pure page-cache code) must fall
	// monotonically-ish: last < first/8.
	first := numericCell(t, tb.Rows[0][4])
	last := numericCell(t, tb.Rows[len(tb.Rows)-1][4])
	if last*8 > first {
		t.Fatalf("pure cache code should shrink with page size: %v -> %v", first, last)
	}
	// Excluding components never makes a run slower than the total by
	// more than jitter.
	for _, row := range tb.Rows {
		total := numericCell(t, row[1])
		both := numericCell(t, row[4])
		if both > total*1.5 {
			t.Fatalf("page %s: both-excluded (%v) exceeds total (%v)", row[0], both, total)
		}
	}
}

func TestFig8ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	tb, err := Fig8(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	gpufsLast := numericCell(t, last[1])
	naiveLast := numericCell(t, last[2])
	if gpufsLast <= naiveLast {
		t.Fatalf("at the RAM-exceeding point GPUfs (%v) must beat naive CUDA (%v)", gpufsLast, naiveLast)
	}
	// In the cached regime all three are within the same order of
	// magnitude.
	first := tb.Rows[0]
	g, n := numericCell(t, first[1]), numericCell(t, first[2])
	if g < n/4 || g > n*4 {
		t.Fatalf("cached regime out of family: gpufs %v vs naive %v", g, n)
	}
}

func TestTable2ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	simtest.OneP(t)
	tb, err := Table2(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	// Reclamation pressure grows as the cache shrinks.
	big := numericCell(t, tb.Rows[0][2])
	small := numericCell(t, tb.Rows[2][2])
	if small <= big {
		t.Fatalf("smaller cache should reclaim more: %v (2G) vs %v (0.5G)", big, small)
	}
}

func TestTable4ShapeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	tb, err := Table4(1.0 / 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		cpu := numericCell(t, row[1])
		gpu := numericCell(t, row[2])
		if gpu >= cpu {
			t.Fatalf("%s: GPUfs (%v) must beat the 8-core CPU (%v)", row[0], gpu, cpu)
		}
	}
}

// TestDaemonScalingTiny pins the PR's acceptance shape: with 4 daemon
// workers and 4 ring shards the 56-block grep must beat the serialized
// single-worker daemon in virtual time.
func TestDaemonScalingTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	g1, _, err := daemonScalingPoint(1.0/32, 1, 480, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	g4, _, err := daemonScalingPoint(1.0/32, 4, 480, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if g4 >= g1 {
		t.Fatalf("grep with 4 workers took %v, not faster than 1 worker's %v", g4, g1)
	}
}
