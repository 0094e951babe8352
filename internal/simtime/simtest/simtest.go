// Package simtest holds the test helpers shared by packages whose tests
// compare virtual timelines or bound what the simulator allocates.
package simtest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// OneP runs the rest of the test on a single P, restoring GOMAXPROCS when
// the test ends. A test that compares two multi-block virtual timelines
// needs it: which block books a shared resource first is the Go
// scheduler's choice (ROADMAP item 1), and until virtual time is a
// function of the inputs one P makes both runs interleave the same way.
func OneP(t testing.TB) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// PoolSlack is how many bytes per use a test must allow code that recycles a
// buffer of n bytes through a sync.Pool: none — except under the race
// detector, where sync.Pool drops one Put in four on purpose and the buffer
// is made again: then 3n/8, the expected quarter plus room for a run's luck
// (measure over a few hundred uses). The allocation guardrails add it to
// their bounds so that they mean the same thing in `go test` and in
// `go test -race`.
func PoolSlack(n int64) int64 {
	if Race() {
		return n * 3 / 8
	}
	return 0
}

// Race reports whether the test binary was built with the race detector, for
// an allocation-count guardrail over pooled buffers: each Put sync.Pool drops
// there costs the next Get an allocation.
func Race() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}
