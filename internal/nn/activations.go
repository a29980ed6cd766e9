package nn

import "gsfl/internal/tensor"

// ReLU applies max(0, x) elementwise. Both passes are one
// tensor.MaskPositive: the value (x forward, dy backward) kept where the
// gate (x, or the layer's own output) is positive.
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

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.ws.out.EnsureShapeOf(x)
	tensor.MaskPositive(y.Data, x.Data, x.Data)
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
	tensor.MaskPositive(dx.Data, dy.Data, r.y.Data)
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
