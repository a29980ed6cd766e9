package nn

import (
	"fmt"

	"gsfl/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW inputs with a square window
// and matching stride (the common non-overlapping configuration).
type MaxPool2D struct {
	K int // window size == stride

	// Cached from the training-mode forward pass: for each output element,
	// the flat input index that supplied the max (argmax routing).
	argmax  []int
	inShape []int

	ws struct {
		out, dx tensor.Tensor
	}
}

// NewMaxPool2D constructs a max-pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D {
	if k <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window must be positive, got %d", k))
	}
	return &MaxPool2D{K: k}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool2d(%d)", p.K) }

// growInts returns xs with exactly n elements, reusing capacity.
func growInts(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
}

// Forward implements Layer. Each window is scanned row-major and a later
// element replaces the running maximum only when strictly greater, so
// ties go to the first occurrence. The scan starts from the window's
// first element, not from -Inf: a window that is all NaN (a diverged
// run) or all -Inf then outputs what it holds and routes its gradient
// to a real position, instead of laundering the NaN into -Inf and
// leaving no argmax at all.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	mustRank(p, x, 4)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.K || w < p.K {
		panic(fmt.Sprintf("nn: %s input %dx%d smaller than window", p.Name(), h, w))
	}
	outH, outW := h/p.K, w/p.K
	y := p.ws.out.Ensure(n, c, outH, outW)
	var arg []int
	if train {
		arg = growInts(p.argmax, y.Size())
	}
	for plane := 0; plane < n*c; plane++ {
		inBase, outBase := plane*h*w, plane*outH*outW
		if p.K == 2 {
			var argPlane []int
			if train {
				argPlane = arg[outBase:][:outH*outW]
			}
			tensor.MaxPool2Plane(y.Data[outBase:][:outH*outW], argPlane, x.Data[inBase:][:h*w], inBase, h, w)
			continue
		}
		for oh := 0; oh < outH; oh++ {
			out := y.Data[outBase+oh*outW:][:outW]
			var argRow []int
			if train {
				argRow = arg[outBase+oh*outW:][:outW]
			}
			for ow := range out {
				bi := inBase + oh*p.K*w + ow*p.K
				best := x.Data[bi]
				for kh := 0; kh < p.K; kh++ {
					rowBase := inBase + (oh*p.K+kh)*w + ow*p.K
					for kw := 0; kw < p.K; kw++ {
						if v := x.Data[rowBase+kw]; v > best {
							best = v
							bi = rowBase + kw
						}
					}
				}
				out[ow] = best
				if train {
					argRow[ow] = bi
				}
			}
		}
	}
	if train {
		p.argmax = arg
		p.inShape = x.AppendShape(p.inShape[:0])
	}
	return y
}

// Backward implements Layer: gradients route to the argmax positions.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward called before training-mode Forward")
	}
	dx := p.ws.dx.Ensure(p.inShape...)
	dx.Zero()
	for oi, ii := range p.argmax {
		dx.Data[ii] += dy.Data[oi]
	}
	return dx
}

// Params implements Layer (none).
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer (none).
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 || in[1] < p.K || in[2] < p.K {
		panic(fmt.Sprintf("nn: %s cannot follow per-sample shape %v", p.Name(), in))
	}
	return []int{in[0], in[1] / p.K, in[2] / p.K}
}

// FwdFLOPs implements Layer: one comparison per window element.
func (p *MaxPool2D) FwdFLOPs(in []int) int64 {
	out := p.OutShape(in)
	return int64(prod(out)) * int64(p.K) * int64(p.K)
}
