package nn

import (
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
)

// Micro-benchmarks for layer forward/backward passes (simulation
// wall-clock cost, not paper figures).

// convBenchCases are the Conv2D shapes the layer benchmarks time: the
// paper's first convolution at 32 px, and the two convolutions of
// env.TestSpec's CNN — 8 px images, a 2×2 pool between them, batch 8 —
// which every sweep_grid and fleet_grid job trains. At the small shapes
// the per-call setup (packing W, the offset tables) is a large share of
// a call, which is what the 32 px case cannot show.
var convBenchCases = []struct {
	name                 string
	inC, outC, px, batch int
}{
	{"3to8@32/batch16", 3, 8, 32, 16},
	{"3to8@8/batch8", 3, 8, 8, 8},
	{"8to16@4/batch8", 8, 16, 4, 8},
}

func BenchmarkConv2DForward(b *testing.B) {
	for _, bc := range convBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			layer := NewConv2D(rng, bc.inC, bc.outC, 3, 1, 1)
			x := tensor.New(bc.batch, bc.inC, bc.px, bc.px).RandNormal(rng, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, false)
			}
		})
	}
}

func BenchmarkConv2DForwardBackward(b *testing.B) {
	for _, bc := range convBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			layer := NewConv2D(rng, bc.inC, bc.outC, 3, 1, 1)
			x := tensor.New(bc.batch, bc.inC, bc.px, bc.px).RandNormal(rng, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				y := layer.Forward(x, true)
				layer.Backward(y)
			}
		})
	}
}

// denseBenchCases are the Dense shapes the layer benchmark times: the
// paper CNN's first dense layer at 32 px, the layers the benchmark
// workloads train — pop_1m's 192→64→43 MLP at batch 8, sweep_grid's
// 64→64 at batch 8, sim_paper's 256→64 server layer at batch 16 — and
// that server layer at an evaluation chunk's 256 rows. The training
// shapes multiply a batch of a few rows against all of W, which is
// where reading W in place pays; the evaluation shape is the trade-off
// ARCHITECTURE "Blocking scheme" records.
var denseBenchCases = []struct {
	name           string
	in, out, batch int
}{
	{"1024to64/batch16", 1024, 64, 16},
	{"192to64/batch8", 192, 64, 8},
	{"64to43/batch8", 64, 43, 8},
	{"64to64/batch8", 64, 64, 8},
	{"256to64/batch16", 256, 64, 16},
	{"256to64/batch256", 256, 64, 256},
}

func BenchmarkDenseForwardBackward(b *testing.B) {
	for _, bc := range denseBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			layer := NewDense(rng, bc.in, bc.out)
			x := tensor.New(bc.batch, bc.in).RandNormal(rng, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				y := layer.Forward(x, true)
				layer.Backward(y)
			}
		})
	}
}

func BenchmarkGTSRBNetForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net := NewSequential(
		NewConv2D(rng, 3, 8, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewConv2D(rng, 8, 16, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(rng, 16*8*8, 64),
		NewReLU(),
		NewDense(rng, 64, 43),
	)
	x := tensor.New(16, 3, 32, 32).RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// benchActivations is a client-half-sized pre-activation batch: the
// first conv's output at the benchmark spine's paper spec.
func benchActivations() *tensor.Tensor {
	return tensor.New(16, 8, 16, 16).RandNormal(rand.New(rand.NewSource(5)), 0, 1)
}

func BenchmarkReLU(b *testing.B) {
	layer, x := NewReLU(), benchActivations()
	dy := x.Clone()
	b.SetBytes(int64(8 * x.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		layer.Backward(dy)
	}
}

func BenchmarkMaxPool2(b *testing.B) {
	layer, x := NewMaxPool2D(2), benchActivations()
	dy := layer.Forward(x, true).Clone()
	b.SetBytes(int64(8 * x.Size()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
		layer.Backward(dy)
	}
}
