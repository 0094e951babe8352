package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to the tables in
// spec.go and to the limits the driver enforces before a single run.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
	generated, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(generated, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from `go run . -spec`; regenerate it")
	}

	// The charsets the driver allows.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(allWorkloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range allWorkloads {
		name("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != higher && m.Better != lower) {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs every workload once at smoke size, with its oracle, and
// checks that what it emits is what the spec names.
func TestSmoke(t *testing.T) {
	layerNames := map[string]bool{}
	for _, m := range perLayer {
		layerNames[m.Name] = true
	}
	for _, w := range allWorkloads {
		r, err := w.run(env{seed: 1, smoke: true, full: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 || r.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
		}
		got := r.e2e()
		for _, m := range endToEnd {
			if v, ok := got[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		if len(got) != len(endToEnd) {
			t.Errorf("%s: emits %d end-to-end metrics, spec has %d", w.name, len(got), len(endToEnd))
		}
		for k := range r.layer {
			if !layerNames[k] {
				t.Errorf("%s: emits per-layer %q, which the spec does not name", w.name, k)
			}
		}
		for _, k := range exercises[w.name] {
			if !(r.layer[k] > 0) {
				t.Errorf("%s: %s = %v, but the workload is there to exercise it", w.name, k, r.layer[k])
			}
		}
		for _, k := range bypasses[w.name] {
			if r.layer[k] != 0 {
				t.Errorf("%s: %s = %v, but the workload is there to bypass it", w.name, k, r.layer[k])
			}
		}
	}
}

// exercises and bypasses pin the traffic to the layers each workload was
// chosen to load or to leave idle (README, "How the metrics interact"): a
// prediction of "no move" on a workload is only worth something while the
// mechanism really does not run there, and a mechanism no workload runs
// could be deleted with no regression showing.
var exercises = map[string][]string{
	"seq_cold":    {"rpc.requests_read", "pcie.h2d_mb"},
	"rand_evict":  {"core.pages_reclaimed", "core.frame_steals", "pcie.d2h_mb", "gpufs.virt_wr_mbps"},
	"hot_mixed":   {"core.zero_copy_reads", "pcie.d2h_mb", "gpufs.virt_wr_mbps"},
	"open_scan":   {"core.closed_reuses", "wrapfs.validations", "core.host_opens"},
	"reopen_scan": {"core.prefetch_issued", "core.prefetch_useful_ratio", "core.history_replays", "core.pages_reclaimed"},
	"serve_open":  {"serve.batches", "serve.jobs_per_launch", "serve.queue_wait_vms_p50"},
	"fleet_burst": {"serve.batches", "fleet.submit_ns"},
}

var bypasses = map[string][]string{
	"seq_cold":    {"core.prefetch_issued", "core.pages_reclaimed"}, // 32K pages: read-ahead's dead zone
	"rand_evict":  {"core.prefetch_issued"},
	"hot_mixed":   {"rpc.requests_read", "core.pages_faulted", "core.pages_reclaimed"},
	"open_scan":   {"core.pages_reclaimed", "core.prefetch_issued"},
	"serve_open":  {"core.pages_reclaimed", "serve.rejected"},
	"fleet_burst": {"core.pages_reclaimed", "fleet.events", "fleet.rehomes"},
}

// TestRunModes drives the two run modes end to end at smoke size: the
// emitted metric names must equal the spec's, and the traced run must
// leave a loadable Chrome trace behind.
func TestRunModes(t *testing.T) {
	w, _ := findWorkload("hot_mixed")
	e := env{seed: 2, smoke: true}
	res, err := runEndToEnd(w, e, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Errorf("untraced run: %d metrics, correct=%v; want %d, true", len(res.Metrics), res.Correct, len(endToEnd))
	}
	for _, m := range endToEnd {
		if res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("untraced run: %s has unit %q, want %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
		}
	}

	dir := t.TempDir()
	res, err = runPerLayer(w, e, time.Millisecond, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || !res.Correct {
		t.Errorf("traced run: %d metrics, correct=%v; want %d, true", len(res.Metrics), res.Correct, len(perLayer))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace_hot_mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"hot_mixed", "block", "gread", "gfsync"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}
