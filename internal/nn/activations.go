package nn

import (
	"math"

	"gsfl/internal/tensor"
)

// ReLU applies max(0, x) elementwise. Both passes are branch-free: the
// sign pattern of a pre-activation batch is close to random, so a
// compare-and-branch per element mispredicts about every other time.
type ReLU struct {
	// y is the training-mode output. It is positive exactly where the
	// input was, so it is also the mask Backward routes gradients by.
	y *tensor.Tensor

	ws struct {
		out, dx tensor.Tensor
	}
}

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// positiveMask returns all ones when v > 0 and zero otherwise — for
// v <= 0, for -0 and for NaN, exactly like the comparison.
func positiveMask(v float64) uint64 {
	// As integers the positive floats up to +Inf are 1..infBits, so
	// bits-1 lies in [0, infBits) for them and for nothing else: +0
	// wraps to -1, a set sign bit keeps bits-1 negative (-0, the most
	// negative integer, wraps above every float), and the positive NaNs
	// sit above infBits.
	const infBits = 0x7FF0000000000000
	t := int64(math.Float64bits(v)) - 1
	return uint64((^t & (t - infBits)) >> 63)
}

// maskPositive writes src[i] where gate[i] > 0 and +0 elsewhere.
func maskPositive(dst, src, gate []float64) {
	src, gate = src[:len(dst)], gate[:len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(math.Float64bits(src[i]) & positiveMask(gate[i]))
	}
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.ws.out.EnsureShapeOf(x)
	maskPositive(y.Data, x.Data, x.Data)
	if train {
		r.y = y
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.y == nil {
		panic("nn: ReLU.Backward called before training-mode Forward")
	}
	dx := r.ws.dx.EnsureShapeOf(dy)
	maskPositive(dx.Data, dy.Data, r.y.Data)
	return dx
}

// Params implements Layer (none).
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (none).
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// OutShape implements Layer (shape-preserving).
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// FwdFLOPs implements Layer.
func (r *ReLU) FwdFLOPs(in []int) int64 { return int64(prod(in)) }
