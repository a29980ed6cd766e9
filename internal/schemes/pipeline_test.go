package schemes_test

import (
	"math"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/simnet"
)

func TestTurnLatencyPipelinedNeverSlower(t *testing.T) {
	env := schemestest.NewEnv(20, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	var plain, piped []simnet.Task
	// Use generous bandwidth so transfer jitter cannot flip the ordering.
	for s := 0; s < 6; s++ {
		step := schemes.StepTasks(env, m, 0, 8)
		schemes.Charge(env, &plain, 5e6, 5e6, step[:]...)
	}
	if err := schemes.ChargeTurn(env, m, 0, 8, 6, 5e6, 5e6, &piped); err != nil {
		t.Fatal(err)
	}
	if p, q := simnet.Fold(piped), simnet.Fold(plain); p.Total() > q.Total()*1.05 {
		t.Fatalf("pipelined turn %v slower than sequential %v", p.Total(), q.Total())
	}
}

func TestTurnLatencySingleStepEquivalent(t *testing.T) {
	// With one step there is nothing to overlap: pipelined and plain
	// pricing must agree up to fading jitter. Disable fading by comparing
	// component structure instead: both must charge all four components.
	env := schemestest.NewEnv(21, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	var chain []simnet.Task
	if err := schemes.ChargeTurn(env, m, 0, 8, 1, 5e6, 5e6, &chain); err != nil {
		t.Fatal(err)
	}
	led := simnet.Fold(chain)
	for _, c := range []simnet.Component{
		simnet.ClientCompute, simnet.Uplink, simnet.ServerCompute, simnet.Downlink,
	} {
		if led.Get(c) <= 0 {
			t.Fatalf("pipelined single-step turn missing component %v", c)
		}
	}
}

func TestTurnLatencyValidation(t *testing.T) {
	env := schemestest.NewEnv(22, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	if err := schemes.ChargeTurn(env, m, 0, 8, 0, 1e6, 1e6, new([]simnet.Task)); err == nil {
		t.Fatal("expected error for zero steps")
	}
}

func TestQuantizedSplitStepStillLearns(t *testing.T) {
	env := schemestest.NewEnv(23, 4, 60)
	env.Hyper.QuantizeTransfers = true
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	cOpt, sOpt := env.Hyper.NewOptimizer(), env.Hyper.NewOptimizer()
	batch := data.All(env.Train[0], env.Arch.InShape)
	var last float64
	first := math.Inf(1)
	for i := 0; i < 60; i++ {
		l := schemes.SplitStep(m, cOpt, sOpt, batch, true)
		if i == 0 {
			first = l
		}
		last = l
	}
	if last >= first*0.8 {
		t.Fatalf("quantized training barely progressed: %v -> %v", first, last)
	}
}

func TestQuantizationShrinksTransferPricing(t *testing.T) {
	env := schemestest.NewEnv(24, 4, 30)
	m := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)

	var full simnet.Ledger
	schemes.StepLatency(env, m, 0, 8, 1e6, 1e6, &full)

	env.Hyper.QuantizeTransfers = true
	var quant simnet.Ledger
	schemes.StepLatency(env, m, 0, 8, 1e6, 1e6, &quant)

	// 8-bit transfers are 4x smaller; with fading jitter allow a wide
	// margin but require a clear reduction.
	if quant.Get(simnet.Uplink) > full.Get(simnet.Uplink)*0.5 {
		t.Fatalf("quantized uplink %v not well below full-precision %v",
			quant.Get(simnet.Uplink), full.Get(simnet.Uplink))
	}
	if quant.Get(simnet.Downlink) > full.Get(simnet.Downlink)*0.5 {
		t.Fatalf("quantized downlink %v not well below full-precision %v",
			quant.Get(simnet.Downlink), full.Get(simnet.Downlink))
	}
	// Compute is precision-independent in this model.
	if quant.Get(simnet.ClientCompute) != full.Get(simnet.ClientCompute) {
		t.Fatal("quantization must not change compute pricing")
	}
}
