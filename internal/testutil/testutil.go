// Package testutil holds shared test helpers. Its main export is
// MaxAllocs, the assertion behind the allocation-regression tests that
// guard the destination-passing hot path (see docs/ARCHITECTURE.md,
// "Memory model & buffer ownership").
package testutil

import (
	"math"
	"testing"
)

// MaxAllocs runs f once to warm up lazily-sized workspaces, then asserts
// that its steady-state allocations per run do not exceed limit.
//
// Under the race detector the workload still runs — exercising the
// buffer-reuse paths for data races is exactly why these tests are part
// of the race job — but the numeric assertion is skipped, because race
// instrumentation perturbs allocation counts.
func MaxAllocs(t testing.TB, name string, limit float64, f func()) {
	t.Helper()
	f() // warm up
	got := testing.AllocsPerRun(10, f)
	if RaceEnabled {
		t.Logf("%s: %.1f allocs/op (not asserted under -race)", name, got)
		return
	}
	if got > limit {
		t.Errorf("%s: %.1f allocs/op, want <= %v", name, got, limit)
	}
}

// RequireSameBits fails the test on the first element of got whose
// float64 bit pattern differs from want's — stricter than ==, which
// equates +0 with -0 and no NaN with anything.
func RequireSameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %016x), want %v (bits %016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
