package gsfl

import (
	"testing"

	"gsfl/internal/metrics"
	"gsfl/internal/model"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
)

// GSFL's groups train on concurrent goroutines, but the contract is that
// worker scheduling never changes anything observable: training curves
// (loss, accuracy, AND latency — the fading RNG draw order is preserved)
// and the aggregated model parameters must be bit-identical to a
// single-worker run.

// runAtWorkers trains a fresh GSFL trainer under the given worker count
// and returns its curve plus the final aggregated halves.
func runAtWorkers(t *testing.T, workers int, cfg schemes.FactoryOpts) (*metrics.Curve, model.Snapshot, model.Snapshot) {
	t.Helper()
	parallel.SetWorkers(workers)
	env := schemestest.NewEnv(21, 8, 40)
	tr, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve := schemestest.RunCurve(t, tr, 6, 2)
	client, server := tr.GlobalSnapshots()
	return curve, client, server
}

func mustEqualCurves(t *testing.T, workers int, a, b *metrics.Curve) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("workers=%d: %d curve points vs %d serial", workers, len(b.Points), len(a.Points))
	}
	for i := range a.Points {
		p, q := a.Points[i], b.Points[i]
		if p.Loss != q.Loss || p.Accuracy != q.Accuracy || p.LatencySeconds != q.LatencySeconds {
			t.Fatalf("workers=%d diverged from serial at point %d: %+v vs %+v", workers, i, q, p)
		}
	}
}

func mustEqualSnapshots(t *testing.T, workers int, name string, a, b model.Snapshot) {
	t.Helper()
	if len(a.Tensors) != len(b.Tensors) {
		t.Fatalf("workers=%d %s: %d tensors vs %d serial", workers, name, len(b.Tensors), len(a.Tensors))
	}
	for ti := range a.Tensors {
		x, y := a.Tensors[ti].Data, b.Tensors[ti].Data
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("workers=%d %s tensor %d element %d: %g vs serial %g",
					workers, name, ti, i, y[i], x[i])
			}
		}
	}
}

func TestGSFLBitIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, cfg := range []schemes.FactoryOpts{
		{Groups: 3, Strategy: "round-robin"},
		{Groups: 3, Strategy: "round-robin", Pipelined: true},
		{Groups: 3, Strategy: "round-robin", DropoutProb: 0.2},
	} {
		baseCurve, baseClient, baseServer := runAtWorkers(t, 1, cfg)
		for _, workers := range []int{2, 8} {
			curve, client, server := runAtWorkers(t, workers, cfg)
			mustEqualCurves(t, workers, baseCurve, curve)
			mustEqualSnapshots(t, workers, "client-half", baseClient, client)
			mustEqualSnapshots(t, workers, "server-half", baseServer, server)
		}
	}
}
