package nn

import (
	"fmt"
	"math/rand"

	"gsfl/internal/tensor"
)

// Dense is a fully connected layer: y = x@W + b, with x of shape
// (batch, in) and y of shape (batch, out).
type Dense struct {
	In, Out int

	w, b   *tensor.Tensor // W is (in×out); b is (out)
	dw, db *tensor.Tensor

	x *tensor.Tensor // cached input for Backward

	// ws is the reusable forward/backward workspace (see the package
	// comment's buffer-ownership rule): out and dx back the returned
	// tensors; dwT/dbT stage this batch's parameter gradients before the
	// single AddInPlace that keeps accumulation order identical to the
	// allocate-fresh implementation.
	ws struct {
		out, dx, dwT, dbT tensor.Tensor
	}
}

// NewDense constructs a Dense layer with He-normal weight initialization
// (the network uses ReLU activations throughout) and zero bias.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense dims must be positive, got %d->%d", in, out))
	}
	return &Dense{
		In:  in,
		Out: out,
		w:   tensor.New(in, out).HeInit(rng, in),
		b:   tensor.New(out),
		dw:  tensor.New(in, out),
		db:  tensor.New(out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	mustRank(d, x, 2)
	if x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: %s got input width %d", d.Name(), x.Dim(1)))
	}
	if train {
		d.x = x
	}
	y := tensor.DenseForwardInto(d.ws.out.Ensure(x.Dim(0), d.Out), x, d.w)
	y.AddRowVector(d.b)
	return y
}

// Backward implements Layer: BackwardParams plus dx = dy @ Wᵀ.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	d.BackwardParams(dy)
	return tensor.DenseInputGradInto(d.ws.dx.Ensure(dy.Dim(0), d.In), dy, d.w)
}

// BackwardParams accumulates dW += xᵀ @ dy and db += column sums of dy
// without computing the input gradient (see Sequential.BackwardParams).
func (d *Dense) BackwardParams(dy *tensor.Tensor) {
	if d.x == nil {
		panic("nn: Dense.Backward called before training-mode Forward")
	}
	d.dw.AddInPlace(tensor.MatMulTransAIntoOp("Dense backward dW=xᵀ@dy", d.ws.dwT.Ensure(d.In, d.Out), d.x, dy))
	d.db.AddInPlace(dy.SumRowsInto(&d.ws.dbT))
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.w, d.b} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dw, d.db} }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	if len(in) != 1 || in[0] != d.In {
		panic(fmt.Sprintf("nn: %s cannot follow per-sample shape %v", d.Name(), in))
	}
	return []int{d.Out}
}

// FwdFLOPs implements Layer: one multiply-add per weight plus the bias add.
func (d *Dense) FwdFLOPs(in []int) int64 {
	return 2*int64(d.In)*int64(d.Out) + int64(d.Out)
}
