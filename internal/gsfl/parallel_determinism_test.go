package gsfl

import (
	"testing"

	"gsfl/env"
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

// runAtWorkers trains a fresh GSFL trainer on a fresh world under the
// given worker count and returns its curve plus the final aggregated
// halves.
func runAtWorkers(t *testing.T, workers int, world func(*testing.T) *schemes.Env, cfg schemes.FactoryOpts) (*metrics.Curve, model.Snapshot, model.Snapshot) {
	t.Helper()
	parallel.SetWorkers(workers)
	tr, err := New(world(t), cfg)
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

// TestGSFLBitIdenticalAcrossWorkers runs each row at 1, 2 and 8 workers.
// Every live group trains its whole turn chain as one task, so the rows
// cover what a task does beyond split steps: re-mounting population
// members (some bound slots dropped, so their loaders sit out a round),
// groups far outnumbering the workers with uneven sizes (For hands out
// multi-group chunks, and groups finish at different positions), and
// the quantized path.
func TestGSFLBitIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	small := func(*testing.T) *schemes.Env { return schemestest.NewEnv(21, 8, 40) }
	quantized := func(t *testing.T) *schemes.Env {
		w := small(t)
		w.Hyper.QuantizeTransfers = true
		return w
	}
	// 60 clients in 36 groups: 24 pairs and 12 singletons, more groups
	// than the 32 chunks For cuts at 8 workers.
	wide := func(*testing.T) *schemes.Env { return schemestest.NewEnv(22, 60, 40) }
	population := func(t *testing.T) *schemes.Env {
		spec := env.TestSpec()
		spec.Population = 4 * spec.Clients
		spec.SampleFraction = 0.25
		spec.AvailTrace = "onoff"
		world, err := env.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return world
	}
	for _, row := range []struct {
		name  string
		world func(*testing.T) *schemes.Env
		cfg   schemes.FactoryOpts
	}{
		{"plain", small, schemes.FactoryOpts{Groups: 3, Strategy: "round-robin"}},
		{"pipelined", small, schemes.FactoryOpts{Groups: 3, Strategy: "round-robin", Pipelined: true}},
		{"dropout", small, schemes.FactoryOpts{Groups: 3, Strategy: "round-robin", DropoutProb: 0.2}},
		{"quantized", quantized, schemes.FactoryOpts{Groups: 3, Strategy: "round-robin"}},
		{"uneven-many-groups", wide, schemes.FactoryOpts{Groups: 36, Strategy: "round-robin", DropoutProb: 0.1}},
		{"population-onoff-dropout", population, schemes.FactoryOpts{Groups: 3, Strategy: "round-robin", DropoutProb: 0.3}},
	} {
		t.Run(row.name, func(t *testing.T) {
			baseCurve, baseClient, baseServer := runAtWorkers(t, 1, row.world, row.cfg)
			for _, workers := range []int{2, 8} {
				curve, client, server := runAtWorkers(t, workers, row.world, row.cfg)
				mustEqualCurves(t, workers, baseCurve, curve)
				mustEqualSnapshots(t, workers, "client-half", baseClient, client)
				mustEqualSnapshots(t, workers, "server-half", baseServer, server)
			}
		})
	}
}
