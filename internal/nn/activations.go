package nn

import (
	"fmt"
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

// LeakyReLU applies x for x>0 and alpha*x otherwise.
type LeakyReLU struct {
	Alpha float64
	x     *tensor.Tensor

	ws struct {
		out, dx tensor.Tensor
	}
}

// NewLeakyReLU constructs a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("nn: LeakyReLU alpha %v outside [0,1)", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return fmt.Sprintf("leakyrelu(%g)", l.Alpha) }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.x = x
	}
	a := l.Alpha
	y := l.ws.out.EnsureShapeOf(x)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = a * v
		}
	}
	return y
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: LeakyReLU.Backward called before training-mode Forward")
	}
	dx := l.ws.dx.EnsureShapeOf(dy)
	for i, v := range l.x.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		} else {
			dx.Data[i] = l.Alpha * dy.Data[i]
		}
	}
	return dx
}

// Params implements Layer (none).
func (l *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (none).
func (l *LeakyReLU) Grads() []*tensor.Tensor { return nil }

// OutShape implements Layer (shape-preserving).
func (l *LeakyReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// FwdFLOPs implements Layer.
func (l *LeakyReLU) FwdFLOPs(in []int) int64 { return int64(prod(in)) }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	y *tensor.Tensor

	ws struct {
		out, dx tensor.Tensor
	}
}

// NewTanh constructs a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := t.ws.out.EnsureShapeOf(x)
	for i, v := range x.Data {
		y.Data[i] = math.Tanh(v)
	}
	if train {
		t.y = y
	}
	return y
}

// Backward implements Layer: d tanh = 1 - tanh².
func (t *Tanh) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if t.y == nil {
		panic("nn: Tanh.Backward called before training-mode Forward")
	}
	dx := t.ws.dx.EnsureShapeOf(dy)
	for i, v := range t.y.Data {
		dx.Data[i] = dy.Data[i] * (1 - v*v)
	}
	return dx
}

// Params implements Layer (none).
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (none).
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// OutShape implements Layer (shape-preserving).
func (t *Tanh) OutShape(in []int) []int { return append([]int(nil), in...) }

// FwdFLOPs implements Layer. tanh is priced at ~8 FLOPs per element.
func (t *Tanh) FwdFLOPs(in []int) int64 { return 8 * int64(prod(in)) }

// Sigmoid applies 1/(1+e^-x) elementwise.
type Sigmoid struct {
	y *tensor.Tensor

	ws struct {
		out, dx tensor.Tensor
	}
}

// NewSigmoid constructs a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := s.ws.out.EnsureShapeOf(x)
	for i, v := range x.Data {
		y.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if train {
		s.y = y
	}
	return y
}

// Backward implements Layer: dσ = σ(1-σ).
func (s *Sigmoid) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if s.y == nil {
		panic("nn: Sigmoid.Backward called before training-mode Forward")
	}
	dx := s.ws.dx.EnsureShapeOf(dy)
	for i, v := range s.y.Data {
		dx.Data[i] = dy.Data[i] * v * (1 - v)
	}
	return dx
}

// Params implements Layer (none).
func (s *Sigmoid) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (none).
func (s *Sigmoid) Grads() []*tensor.Tensor { return nil }

// OutShape implements Layer (shape-preserving).
func (s *Sigmoid) OutShape(in []int) []int { return append([]int(nil), in...) }

// FwdFLOPs implements Layer. The exponential is priced at ~8 FLOPs.
func (s *Sigmoid) FwdFLOPs(in []int) int64 { return 8 * int64(prod(in)) }
