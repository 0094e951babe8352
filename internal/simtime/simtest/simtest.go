// Package simtest holds the test helpers shared by packages whose tests
// compare virtual timelines.
package simtest

import (
	"runtime"
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
