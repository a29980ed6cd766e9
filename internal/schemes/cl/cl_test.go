package cl

import (
	"context"
	"testing"

	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/simnet"
)

func newTrainer(t *testing.T, seed int64, n int) *Trainer {
	t.Helper()
	tr, err := New(schemestest.NewEnv(seed, n, 40))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCLLearnsBlobs(t *testing.T) {
	tr := newTrainer(t, 1, 6)
	curve := schemestest.RunCurve(t, tr, 8, 2)
	if !curve.IsFinite() {
		t.Fatal("training diverged")
	}
	if acc := curve.FinalAccuracy(); acc < 0.8 {
		t.Fatalf("final accuracy %v; CL (the upper bound) must learn well", acc)
	}
}

func TestCLDeterministic(t *testing.T) {
	c1 := schemestest.RunCurve(t, newTrainer(t, 3, 5), 3, 1)
	c2 := schemestest.RunCurve(t, newTrainer(t, 3, 5), 3, 1)
	for i := range c1.Points {
		if c1.Points[i] != c2.Points[i] {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestCLOnlyServerCompute(t *testing.T) {
	tr := newTrainer(t, 2, 4)
	led := schemestest.MustRound(t, tr)
	if led.Get(simnet.ServerCompute) <= 0 {
		t.Fatal("CL must pay server compute")
	}
	for _, c := range []simnet.Component{
		simnet.ClientCompute, simnet.Uplink, simnet.Downlink,
		simnet.Relay, simnet.Aggregation,
	} {
		if led.Get(c) != 0 {
			t.Fatalf("CL round must not pay %v", c)
		}
	}
}

func TestCLFastestPerRound(t *testing.T) {
	// The edge server is ~100x faster than clients and pays no wireless
	// cost, so a CL round must be far cheaper than any distributed round
	// doing the same number of updates.
	tr := newTrainer(t, 4, 6)
	if total := schemestest.MustRound(t, tr).Total(); total > 1 {
		t.Fatalf("CL round took %v virtual seconds; expected sub-second server-only time", total)
	}
}

func TestCLInvalidEnv(t *testing.T) {
	env := schemestest.NewEnv(1, 4, 30)
	env.Hyper.Batch = 0
	if _, err := New(env); err == nil {
		t.Fatal("expected error for invalid env")
	}
}

// TestRoundChainCarriesTheChargedSeconds: simnet.Fold of the round's
// chain reproduces the round it returned bit for bit — the chain is what
// the trace draws.
func TestRoundChainCarriesTheChargedSeconds(t *testing.T) {
	tr := newTrainer(t, 3, 6)
	led, err := tr.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.chain) != tr.stepsPerRound {
		t.Fatalf("chain has %d tasks for %d steps", len(tr.chain), tr.stepsPerRound)
	}
	folded := simnet.Fold(tr.chain)
	for _, c := range simnet.Components() {
		if got, want := folded.Get(c), led.Get(c); got != want {
			t.Errorf("%v folds to %v, ledger has %v", c, got, want)
		}
	}
}
