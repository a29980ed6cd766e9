package experiment

import (
	"context"
	"math"
	"testing"

	"gsfl/env"
)

// TestNumericGridFastWithinGoldenTolerance executes the numeric study's
// cells at test scale and pins the two-sided contract end to end —
// through grid expansion, AcquireNumericMode, and full training rounds:
//
//   - the exact cell is bit-identical to a run that never mentions
//     numerics (the default mode IS the historical behavior), and
//   - the fast cell's curve tracks the exact curve within the golden
//     tolerance: identical simulated latencies (kernel numerics never
//     touch the latency model), losses and accuracies within a small
//     absolute band. On hardware without FMA the fast kernels fall back
//     to the exact ones and the band is trivially met.
func TestNumericGridFastWithinGoldenTolerance(t *testing.T) {
	spec := env.TestSpec()
	jobs, err := entry(t, "numeric", 3, 1, func(a *Axes) { a.Numerics = []string{"exact", "fast"} }).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("numeric grid expanded to %d jobs, want 2", len(jobs))
	}

	baseGrid := Grid{Name: "base", Base: spec, Rounds: 3, EvalEvery: 1}
	baseJobs, err := baseGrid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if baseJobs[0].ID != jobs[0].ID {
		t.Fatalf("exact cell ID %s differs from the numeric-free cell %s", jobs[0].ID, baseJobs[0].ID)
	}

	ctx := context.Background()
	base, err := RunJob(ctx, baseJobs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunJob(ctx, jobs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunJob(ctx, jobs[1], nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(exact.Curve.Points) != len(base.Curve.Points) || len(fast.Curve.Points) != len(base.Curve.Points) {
		t.Fatalf("curve lengths differ: base %d exact %d fast %d",
			len(base.Curve.Points), len(exact.Curve.Points), len(fast.Curve.Points))
	}
	for i, want := range base.Curve.Points {
		if exact.Curve.Points[i] != want {
			t.Fatalf("exact-mode point %d differs from the numeric-free run: %+v vs %+v",
				i, exact.Curve.Points[i], want)
		}
	}

	// Golden tolerance for the reassociating mode. Measured drift on
	// FMA hardware after 3 test-scale rounds is ~1e-15 in loss; the band
	// leaves generous headroom for deeper runs and other vector hardware
	// while still catching any real numerical change (a kernel bug
	// shifts the loss by far more than 1e-6).
	const lossTol, accTol = 1e-6, 0.05
	for i, want := range exact.Curve.Points {
		got := fast.Curve.Points[i]
		if got.Round != want.Round || got.LatencySeconds != want.LatencySeconds {
			t.Fatalf("fast-mode point %d: round/latency must be identical: %+v vs %+v", i, got, want)
		}
		if d := math.Abs(got.Loss - want.Loss); d > lossTol {
			t.Fatalf("fast-mode point %d: loss drifted %g from exact (tolerance %g)", i, d, lossTol)
		}
		if d := math.Abs(got.Accuracy - want.Accuracy); d > accTol {
			t.Fatalf("fast-mode point %d: accuracy drifted %g from exact (tolerance %g)", i, d, accTol)
		}
	}
}
