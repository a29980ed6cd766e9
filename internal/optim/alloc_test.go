package optim

import (
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// TestStepAllocFree pins the in-place optimizer contract: after the
// first step lazily allocates momentum buffers, SGD updates touch no
// heap.
func TestStepAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := []*tensor.Tensor{
		tensor.New(32, 16).RandNormal(rng, 0, 1),
		tensor.New(16).RandNormal(rng, 0, 1),
	}
	g := []*tensor.Tensor{
		tensor.New(32, 16).RandNormal(rng, 0, 0.1),
		tensor.New(16).RandNormal(rng, 0, 0.1),
	}
	d := []bool{true, false}
	sgd := NewSGDMomentum(0.01, 0.9)
	sgd.WeightDecay = 1e-4
	sgd.ClipNorm = 5
	testutil.MaxAllocs(t, "SGD.Step", 0, func() { sgd.Step(p, g, d) })
}
