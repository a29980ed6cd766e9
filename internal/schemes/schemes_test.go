package schemes_test

import (
	"context"
	"math"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/simnet"
	"gsfl/internal/tensor"
)

func TestHyperValidate(t *testing.T) {
	good := schemes.Hyper{Batch: 8, StepsPerClient: 2, LR: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid hyper rejected: %v", err)
	}
	full := schemes.Hyper{Batch: 8, StepsPerClient: 2, LR: 0.1, Momentum: 0.9, ClipNorm: 5,
		LRDecayFactor: 0.5, LRDecayEvery: 10}
	if err := full.Validate(); err != nil {
		t.Fatalf("valid hyper rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*schemes.Hyper)
	}{
		{"zero batch", func(h *schemes.Hyper) { h.Batch = 0 }},
		{"zero steps", func(h *schemes.Hyper) { h.StepsPerClient = 0 }},
		{"zero lr", func(h *schemes.Hyper) { h.LR = 0 }},
		{"NaN lr", func(h *schemes.Hyper) { h.LR = nan }},
		{"infinite lr", func(h *schemes.Hyper) { h.LR = inf }},
		{"momentum 1", func(h *schemes.Hyper) { h.Momentum = 1 }},
		{"momentum 5", func(h *schemes.Hyper) { h.Momentum = 5 }},
		{"negative momentum", func(h *schemes.Hyper) { h.Momentum = -0.5 }},
		{"NaN momentum", func(h *schemes.Hyper) { h.Momentum = nan }},
		{"negative clip", func(h *schemes.Hyper) { h.ClipNorm = -1 }},
		{"NaN clip", func(h *schemes.Hyper) { h.ClipNorm = nan }},
		{"infinite clip", func(h *schemes.Hyper) { h.ClipNorm = inf }},
		{"NaN decay factor", func(h *schemes.Hyper) { h.LRDecayFactor = nan }},
		{"infinite decay factor", func(h *schemes.Hyper) { h.LRDecayFactor = inf }},
		{"negative decay factor", func(h *schemes.Hyper) { h.LRDecayFactor = -0.5 }},
	}
	for _, tc := range cases {
		h := full
		tc.mut(&h)
		if err := h.Validate(); err == nil {
			t.Errorf("%s: invalid hyper %+v accepted", tc.name, h)
		}
	}
}

func TestEnvValidate(t *testing.T) {
	env := schemestest.NewEnv(1, 4, 30)
	if err := env.Validate(); err != nil {
		t.Fatalf("fixture env invalid: %v", err)
	}
	broken := schemestest.NewEnv(1, 4, 30)
	broken.Fleet = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("nil fleet accepted")
	}
	broken2 := schemestest.NewEnv(1, 4, 30)
	broken2.Train[2] = nil
	if err := broken2.Validate(); err == nil {
		t.Fatal("nil client dataset accepted")
	}
}

func TestRngStreamsIndependent(t *testing.T) {
	env := schemestest.NewEnv(1, 4, 30)
	a1 := env.Rng("alpha", 0).Float64()
	a2 := env.Rng("alpha", 0).Float64()
	if a1 != a2 {
		t.Fatal("same purpose must give the same stream")
	}
	b := env.Rng("beta", 0).Float64()
	c := env.Rng("alpha", 1).Float64()
	if a1 == b || a1 == c {
		t.Fatal("different purposes/keys must give different streams")
	}
}

func TestEvaluateMatchesDirectComputation(t *testing.T) {
	env := schemestest.NewEnv(2, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	e1, err := schemes.Evaluate(context.Background(), m, env.Test, env.Arch.InShape)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(e1.Loss) || e1.Accuracy < 0 || e1.Accuracy > 1 {
		t.Fatalf("Evaluate returned %+v", e1)
	}
	// Chunked evaluation must be invariant to chunk boundaries: evaluate
	// twice; identical results (pure function).
	e2, err := schemes.Evaluate(context.Background(), m, env.Test, env.Arch.InShape)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("Evaluate is not deterministic")
	}
}

func TestSplitStepReducesLoss(t *testing.T) {
	env := schemestest.NewEnv(3, 4, 50)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	cOpt, sOpt := env.Hyper.NewOptimizer(), env.Hyper.NewOptimizer()

	// Train on a fixed batch; the loss on that batch must fall.
	batch := data.All(env.Train[0], env.Arch.InShape)
	first := schemes.SplitStep(m, cOpt, sOpt, batch, false)
	var last float64
	for i := 0; i < 30; i++ {
		last = schemes.SplitStep(m, cOpt, sOpt, batch, false)
	}
	if last >= first {
		t.Fatalf("loss did not fall on a fixed batch: %v -> %v", first, last)
	}
}

func TestStepLatencyComponents(t *testing.T) {
	env := schemestest.NewEnv(4, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	led := &simnet.Ledger{}
	schemes.StepLatency(env, m, 0, env.Hyper.Batch, 1e6, 1e6, led)
	for _, c := range []simnet.Component{
		simnet.ClientCompute, simnet.Uplink, simnet.ServerCompute, simnet.Downlink,
	} {
		if led.Get(c) <= 0 {
			t.Fatalf("component %v not priced", c)
		}
	}
	if led.Get(simnet.Relay) != 0 || led.Get(simnet.Aggregation) != 0 {
		t.Fatal("step must not price relay/aggregation")
	}
}

func TestRelayLatency(t *testing.T) {
	env := schemestest.NewEnv(5, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	led := &simnet.Ledger{}
	schemes.RelayLatency(env, m, 0, 1, 1e6, 1e6, led)
	if led.Get(simnet.Relay) <= 0 {
		t.Fatal("relay must cost time")
	}
}

func TestAggregationLatencyScales(t *testing.T) {
	env := schemestest.NewEnv(6, 4, 30)
	t1, t2 := schemes.AggregationTask(env, 2, 1000), schemes.AggregationTask(env, 4, 1000)
	if t1.Component != simnet.Aggregation || t2.Seconds != 2*t1.Seconds {
		t.Fatal("aggregation time must scale with model count")
	}
}

func TestEvaluateHonoursCancellation(t *testing.T) {
	env := schemestest.NewEnv(7, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := schemes.Evaluate(ctx, m, env.Test, env.Arch.InShape); err != context.Canceled {
		t.Fatalf("cancelled Evaluate returned %v, want context.Canceled", err)
	}
}

func TestLRDecayValidation(t *testing.T) {
	h := schemes.Hyper{Batch: 8, StepsPerClient: 2, LR: 0.1, LRDecayFactor: 0.5}
	if err := h.Validate(); err == nil {
		t.Fatal("factor without interval accepted")
	}
	h = schemes.Hyper{Batch: 8, StepsPerClient: 2, LR: 0.1, LRDecayFactor: 0.5, LRDecayEvery: 10}
	if err := h.Validate(); err != nil {
		t.Fatalf("valid decay config rejected: %v", err)
	}
	h.LRDecayFactor = 1.5
	if err := h.Validate(); err == nil {
		t.Fatal("factor > 1 accepted")
	}
}

func TestLRDecayScheduleApplied(t *testing.T) {
	env := schemestest.NewEnv(30, 4, 30)
	env.Hyper.LRDecayFactor = 0.5
	env.Hyper.LRDecayEvery = 1
	opt := env.Hyper.NewOptimizer()
	// Two steps on a unit gradient: first at LR, second at LR/2.
	p := tensorOf(0)
	g := tensorOf(1)
	opt.Step(p, g, nil)
	after1 := -p[0].Data[0]
	opt.Step(p, g, nil)
	after2 := -p[0].Data[0] - after1
	if after2 >= after1 {
		t.Fatalf("LR did not decay: step1 %v, step2 %v", after1, after2)
	}
}

func tensorOf(v float64) []*tensor.Tensor {
	t := tensor.New(1)
	t.Data[0] = v
	return []*tensor.Tensor{t}
}
