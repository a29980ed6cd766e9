package gsfl

import (
	"testing"

	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
)

func newDropoutTrainer(t *testing.T, seed int64, n, groups int, p float64) *Trainer {
	t.Helper()
	env := schemestest.NewEnv(seed, n, 40)
	tr, err := New(env, schemes.FactoryOpts{Groups: groups, Strategy: "round-robin", DropoutProb: p})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDropoutStillLearns(t *testing.T) {
	// With 20% of clients dropping each round, GSFL must still converge —
	// the aggregation just averages over fewer participants.
	tr := newDropoutTrainer(t, 1, 6, 2, 0.2)
	curve := schemestest.RunCurve(t, tr, 20, 4)
	if !curve.IsFinite() {
		t.Fatal("training with dropout diverged")
	}
	if acc := curve.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("final accuracy %v under 20%% dropout", acc)
	}
}

func TestDropoutDeterministic(t *testing.T) {
	c1 := schemestest.RunCurve(t, newDropoutTrainer(t, 2, 6, 2, 0.3), 6, 1)
	c2 := schemestest.RunCurve(t, newDropoutTrainer(t, 2, 6, 2, 0.3), 6, 1)
	for i := range c1.Points {
		if c1.Points[i] != c2.Points[i] {
			t.Fatalf("dropout runs diverged at point %d", i)
		}
	}
}

func TestDropoutReducesRoundLatency(t *testing.T) {
	// Fewer participating clients per round means shorter sequential
	// chains inside groups; average round latency must not exceed the
	// failure-free case. (High dropout makes rounds cheaper, not costlier.)
	latency := func(p float64) float64 {
		tr := newDropoutTrainer(t, 3, 8, 2, p)
		total := 0.0
		for i := 0; i < 10; i++ {
			total += schemestest.MustRound(t, tr).Total()
		}
		return total
	}
	if l0, l5 := latency(0), latency(0.5); l5 >= l0 {
		t.Fatalf("50%% dropout latency %v not below failure-free %v", l5, l0)
	}
}

func TestFullDropoutRoundIsNoOp(t *testing.T) {
	// With dropout ≈ 1 some rounds lose every client; those rounds must
	// not panic, cost nothing, and leave the global model unchanged.
	tr := newDropoutTrainer(t, 4, 4, 2, 0.97)
	beforeC, beforeS := tr.GlobalSnapshots()
	sawNoOp := false
	for i := 0; i < 30; i++ {
		led := schemestest.MustRound(t, tr)
		if led.Total() == 0 {
			sawNoOp = true
			break
		}
		beforeC, beforeS = tr.GlobalSnapshots()
	}
	if !sawNoOp {
		t.Skip("no fully-dropped round occurred in 30 tries (improbable)")
	}
	afterC, afterS := tr.GlobalSnapshots()
	if beforeC.L2Distance(afterC) != 0 || beforeS.L2Distance(afterS) != 0 {
		t.Fatal("no-op round mutated the global model")
	}
}

func TestInvalidDropoutRejected(t *testing.T) {
	env := schemestest.NewEnv(5, 4, 30)
	if _, err := New(env, schemes.FactoryOpts{Groups: 2, DropoutProb: 1.0}); err == nil {
		t.Fatal("dropout = 1 must be rejected")
	}
	if _, err := New(env, schemes.FactoryOpts{Groups: 2, DropoutProb: -0.1}); err == nil {
		t.Fatal("negative dropout must be rejected")
	}
}
