package nn

import (
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
)

// scalarLoss reduces a layer output to a scalar with fixed random weights,
// so that dL/d(output) is a known constant tensor. Using a weighted sum
// (rather than a plain sum) exercises every output element with a
// distinct gradient.
type scalarLoss struct {
	w *tensor.Tensor
}

func newScalarLoss(rng *rand.Rand, shape []int) *scalarLoss {
	return &scalarLoss{w: tensor.New(shape...).RandNormal(rng, 0, 1)}
}

func (s *scalarLoss) value(y *tensor.Tensor) float64 { return tensor.Dot(y, s.w) }
func (s *scalarLoss) grad() *tensor.Tensor           { return s.w.Clone() }

// checkLayerGradients verifies Backward against central finite differences
// for both the input and every parameter of the layer.
//
// Stochastic layers (Dropout) cannot be checked this way; the test file
// handles them separately with deterministic configurations.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	// Analytic pass.
	y := layer.Forward(x, true)
	loss := newScalarLoss(rng, y.Shape())
	ZeroGrads([]Layer{layer})
	dx := layer.Backward(loss.grad())

	eval := func() float64 {
		return loss.value(layer.Forward(x, false))
	}
	// BatchNorm in eval mode uses running stats, not batch stats, so the
	// finite-difference probe must rerun the training-mode forward. That
	// mutates running stats, which is fine: they do not affect the
	// training-mode output.
	if _, isBN := layer.(*BatchNorm); isBN {
		eval = func() float64 { return loss.value(layer.Forward(x, true)) }
	}

	const h = 1e-5
	checkTensor := func(name string, val *tensor.Tensor, analytic *tensor.Tensor) {
		t.Helper()
		for i := range val.Data {
			orig := val.Data[i]
			val.Data[i] = orig + h
			lp := eval()
			val.Data[i] = orig - h
			lm := eval()
			val.Data[i] = orig
			num := (lp - lm) / (2 * h)
			got := analytic.Data[i]
			denom := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/denom > tol {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, got, num)
			}
		}
	}

	checkTensor("dx", x, dx)
	params, grads := layer.Params(), layer.Grads()
	for pi := range params {
		checkTensor(layer.Name()+" param", params[pi], grads[pi])
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, 5, 4)
	x := tensor.New(3, 5).RandNormal(rng, 0, 1)
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewConv2D(rng, 2, 3, 3, 1, 1)
	x := tensor.New(2, 2, 5, 5).RandNormal(rng, 0, 1)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewConv2D(rng, 1, 2, 3, 2, 0)
	x := tensor.New(2, 1, 7, 7).RandNormal(rng, 0, 1)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewMaxPool2D(2)
	// Spread values so no two window elements tie (ties make the argmax
	// subgradient ambiguous and the check invalid).
	x := tensor.New(2, 2, 4, 4)
	perm := rng.Perm(x.Size())
	for i, p := range perm {
		x.Data[i] = float64(p) * 0.37
	}
	checkLayerGradients(t, layer, x, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewReLU()
	x := tensor.New(4, 6).RandNormal(rng, 0, 1)
	// Push values away from the kink at 0 where the subgradient check fails.
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.1 {
			return v + 0.2
		}
		return v
	})
	checkLayerGradients(t, layer, x, 1e-6)
}

func TestBatchNorm2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewBatchNorm(4)
	x := tensor.New(6, 4).RandNormal(rng, 1, 2)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestBatchNorm4DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewBatchNorm(3)
	x := tensor.New(2, 3, 3, 3).RandNormal(rng, -1, 1.5)
	checkLayerGradients(t, layer, x, 1e-4)
}

func TestFlattenGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layer := NewFlatten()
	x := tensor.New(2, 3, 2, 2).RandNormal(rng, 0, 1)
	checkLayerGradients(t, layer, x, 1e-6)
}

// TestSequentialCNNGradients runs the finite-difference check through a
// small but complete CNN stack — the same layer sequence the GSFL model
// uses — catching any error in cross-layer gradient plumbing.
func TestSequentialCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(
		NewConv2D(rng, 1, 2, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(rng, 2*3*3, 5),
	)
	x := tensor.New(2, 1, 6, 6)
	perm := rng.Perm(x.Size())
	for i, p := range perm {
		x.Data[i] = float64(p)*0.11 - 3
	}

	lossRng := rand.New(rand.NewSource(13))
	y := net.Forward(x, true)
	loss := newScalarLoss(lossRng, y.Shape())
	net.ZeroGrads()
	dx := net.Backward(loss.grad())

	const h = 1e-5
	const tol = 1e-4
	eval := func() float64 { return loss.value(net.Forward(x, false)) }
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := eval()
		x.Data[i] = orig - h
		lm := eval()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		denom := math.Max(1, math.Max(math.Abs(num), math.Abs(dx.Data[i])))
		if math.Abs(num-dx.Data[i])/denom > tol {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
	params, grads := net.Params(), net.Grads()
	for pi := range params {
		for i := range params[pi].Data {
			orig := params[pi].Data[i]
			params[pi].Data[i] = orig + h
			lp := eval()
			params[pi].Data[i] = orig - h
			lm := eval()
			params[pi].Data[i] = orig
			num := (lp - lm) / (2 * h)
			got := grads[pi].Data[i]
			denom := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/denom > tol {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, i, got, num)
			}
		}
	}
}
