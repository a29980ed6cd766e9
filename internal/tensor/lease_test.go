package tensor_test

import (
	"math/rand"
	"testing"

	"gsfl/internal/nn"
	"gsfl/internal/parallel"
	"gsfl/internal/tensor"
)

// TestLayerStepLeases counts what a layer's steady-state training step
// leases from the GEMM engine's shared packing pool, at one worker: a
// dense layer's three products lease nothing — its plans and panels are
// its own — and a convolution's lease one buffer each, for the images
// of the batch.
func TestLayerStepLeases(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(1))

	dense := nn.NewSequential(nn.NewDense(rng, 192, 64), nn.NewReLU(), nn.NewDense(rng, 64, 43))
	x := tensor.New(8, 192).RandNormal(rng, 0, 1)
	dy := dense.Forward(x, true).Clone()
	dense.Backward(dy)
	if n := tensor.CountLeases(func() {
		dense.Forward(x, true)
		dense.Backward(dy)
	}); n != 0 {
		t.Errorf("dense training step leased %d buffers, want 0", n)
	}

	conv := nn.NewConv2D(rng, 3, 8, 3, 1, 1)
	img := tensor.New(4, 3, 8, 8).RandNormal(rng, 0, 1)
	cdy := conv.Forward(img, true).Clone()
	conv.Backward(cdy)
	for _, c := range []struct {
		name string
		want int
		f    func()
	}{
		{"forward", 1, func() { conv.Forward(img, true) }},
		{"parameter gradients", 1, func() { conv.BackwardParams(cdy) }},
		{"both gradients", 2, func() { conv.Backward(cdy) }},
	} {
		if n := tensor.CountLeases(c.f); n != c.want {
			t.Errorf("conv %s leased %d buffers, want %d (one a product)", c.name, n, c.want)
		}
	}
}
