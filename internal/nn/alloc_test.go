package nn

import (
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// Steady-state allocation regression tests for the layer workspaces:
// after a warm-up call, every layer's Forward and Backward must be
// allocation-free while the batch shape is stable. Run serially —
// fork-join helpers necessarily allocate goroutine state, which is not
// what these tests guard.

func serialWorkers(t *testing.T) {
	t.Helper()
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
}

// layerAllocCase drives one layer with a fixed input and asserts zero
// steady-state allocations for train-mode Forward and for Backward.
func layerAllocCase(t *testing.T, l Layer, x *tensor.Tensor) {
	t.Helper()
	serialWorkers(t)
	y := l.Forward(x, true)
	dy := y.Clone() // gradient with the output's shape, owned by the test
	testutil.MaxAllocs(t, l.Name()+" forward", 0, func() { l.Forward(x, true) })
	testutil.MaxAllocs(t, l.Name()+" backward", 0, func() { l.Backward(dy) })
	testutil.MaxAllocs(t, l.Name()+" eval forward", 0, func() { l.Forward(x, false) })
}

func TestDenseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layerAllocCase(t, NewDense(rng, 64, 32), tensor.New(8, 64).RandNormal(rng, 0, 1))
}

func TestConv2DAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layerAllocCase(t, NewConv2D(rng, 3, 8, 3, 1, 1), tensor.New(4, 3, 12, 12).RandNormal(rng, 0, 1))
}

func TestMaxPoolAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layerAllocCase(t, NewMaxPool2D(2), tensor.New(4, 3, 8, 8).RandNormal(rng, 0, 1))
}

func TestActivationsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layerAllocCase(t, NewReLU(), tensor.New(8, 32).RandNormal(rng, 0, 1))
}

func TestBatchNormAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layerAllocCase(t, NewBatchNorm(16), tensor.New(8, 16).RandNormal(rng, 0, 1))
	layerAllocCase(t, NewBatchNorm(3), tensor.New(4, 3, 6, 6).RandNormal(rng, 0, 1))
}

func TestDropoutAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layerAllocCase(t, NewDropout(rand.New(rand.NewSource(8)), 0.3), tensor.New(8, 32).RandNormal(rng, 0, 1))
}

func TestFlattenAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layerAllocCase(t, NewFlatten(), tensor.New(4, 3, 4, 4).RandNormal(rng, 0, 1))
}

// TestSequentialStepAllocFree drives a full CNN training step — forward,
// zero-grads, backward, with and without the network-input gradient —
// and asserts it is allocation-free after warmup, which is what the
// benchmark spine's gsfl.round.allocs rests on.
func TestSequentialStepAllocFree(t *testing.T) {
	serialWorkers(t)
	rng := rand.New(rand.NewSource(10))
	net := NewSequential(
		NewConv2D(rng, 3, 8, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(rng, 8*6*6, 16),
		NewReLU(),
		NewDense(rng, 16, 4),
	)
	x := tensor.New(4, 3, 12, 12).RandNormal(rng, 0, 1)
	y := net.Forward(x, true)
	dy := y.Clone()
	testutil.MaxAllocs(t, "sequential step", 0, func() {
		net.Forward(x, true)
		net.ZeroGrads()
		net.Backward(dy)
	})
	testutil.MaxAllocs(t, "sequential step, parameters only", 0, func() {
		net.Forward(x, true)
		net.ZeroGrads()
		net.BackwardParams(dy)
	})
}

// TestWorkspaceReuseMatchesFreshLayer verifies the core refactor claim:
// a layer whose workspace has been warmed by unrelated batches computes
// bit-identical results to a freshly constructed twin.
func TestWorkspaceReuseMatchesFreshLayer(t *testing.T) {
	serialWorkers(t)
	mk := func() *Conv2D { return NewConv2D(rand.New(rand.NewSource(42)), 2, 4, 3, 1, 1) }
	warm, fresh := mk(), mk()

	rng := rand.New(rand.NewSource(11))
	// Warm with batches of a different size (and one eval pass) first.
	for i := 0; i < 3; i++ {
		w := warm.Forward(tensor.New(6, 2, 8, 8).RandNormal(rng, 0, 1), true)
		warm.Backward(w)
	}
	warm.Forward(tensor.New(2, 2, 8, 8).RandNormal(rng, 0, 1), false)
	ZeroGrads([]Layer{warm})

	x := tensor.New(4, 2, 8, 8).RandNormal(rng, 0, 1)
	dy := tensor.New(4, 4, 8, 8).RandNormal(rng, 0, 1)
	yw := warm.Forward(x, true)
	yf := fresh.Forward(x, true)
	if !tensor.AllClose(yw, yf, 0) {
		t.Fatal("warmed workspace changed forward results")
	}
	dxw := warm.Backward(dy)
	dxf := fresh.Backward(dy)
	if !tensor.AllClose(dxw, dxf, 0) {
		t.Fatal("warmed workspace changed input gradients")
	}
	gw, gf := warm.Grads(), fresh.Grads()
	for i := range gw {
		if !tensor.AllClose(gw[i], gf[i], 0) {
			t.Fatalf("warmed workspace changed parameter gradient %d", i)
		}
	}
}
