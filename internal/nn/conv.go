package nn

import (
	"fmt"
	"math/rand"

	"gsfl/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, implemented as implicit
// GEMM: the forward product W @ im2col(x) and the weight-gradient
// product dy @ im2col(x)ᵀ run on tensor's fused convolution kernels,
// whose micro-kernel reads a zero-padded copy of the image in place
// through the im2col index map — the column matrix is never
// materialized or packed. Weights have shape (outC, inC*KH*KW); bias is
// (outC).
//
// The forward pass is one tensor batch call: W is packed once per call
// and every sample's product, partitioned across the parallel worker
// pool, reads that one pack and writes a disjoint slice of the output,
// so results are bit-identical to the serial loop. The backward pass
// has two independent halves. The parameter half (BackwardParams) is
// one batch call, GEMM.ConvWeightGradBatchInto: a single product over
// every sample writes dW, and db is written from the row sums of dy,
// each element the per-sample terms summed in sample order, so results
// are bit-identical at any worker count. The input half is one batch
// call too,
// GEMM.ConvInputGradBatchInto: it packs W once, rearranged, and writes
// each sample's dx directly, tap by tap in the order a col2im scatter of
// the column gradients Wᵀ @ dy would add them — bit for bit that
// scatter's result while W is finite, with no column matrix and no
// scatter. Backward runs
// both; a Conv2D that is the first layer of a network whose caller
// discards the input gradient (Sequential.BackwardParams) runs only the
// parameter half and never sizes the dx buffer at all.
//
// All batch-shaped buffers (output, input gradient) and the plans of the
// three products live in a lazily-sized workspace, so steady-state
// Forward/Backward calls allocate nothing. Each product leases one
// buffer a call, for the images of its batch.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int

	w, b   *tensor.Tensor
	dw, db *tensor.Tensor

	// Cached from the training-mode forward pass.
	x    *tensor.Tensor // input batch (N,C,H,W)
	geom tensor.ConvGeom

	ws convWorkspace
}

// convWorkspace is Conv2D's reusable buffer set.
type convWorkspace struct {
	out  tensor.Tensor // forward output (N, outC, outH, outW)
	dx   tensor.Tensor // input gradient (N, C, H, W) (input half of Backward only)
	gemm tensor.GEMM   // the plans of the forward pass and both gradients
}

// NewConv2D constructs a Conv2D layer with He initialization. Stride and
// padding apply symmetrically to both spatial dimensions.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: bad Conv2D config inC=%d outC=%d k=%d stride=%d pad=%d", inC, outC, k, stride, pad))
	}
	fanIn := inC * k * k
	return &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		w:  tensor.New(outC, fanIn).HeInit(rng, fanIn),
		b:  tensor.New(outC),
		dw: tensor.New(outC, fanIn),
		db: tensor.New(outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%d->%d,k%d,s%d,p%d)", c.InC, c.OutC, c.KH, c.Stride, c.Pad)
}

func (c *Conv2D) geomFor(x *tensor.Tensor) tensor.ConvGeom {
	g := tensor.ConvGeom{
		InC: c.InC, InH: x.Dim(2), InW: x.Dim(3),
		KH: c.KH, KW: c.KW,
		StrideH: c.Stride, StrideW: c.Stride,
		PadH: c.Pad, PadW: c.Pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	mustRank(c, x, 4)
	if x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got %d input channels", c.Name(), x.Dim(1)))
	}
	g := c.geomFor(x)
	y := c.ws.out.Ensure(x.Dim(0), c.OutC, g.OutH(), g.OutW())
	if !train {
		// An evaluation pass borrows its plan rather than keeping one: its
		// chunk is a batch size training never uses, and a model that
		// only evaluates would keep plans for nothing else.
		return tensor.ConvForwardBatchInto(y, c.w, c.b, x, g)
	}
	c.x = x
	c.geom = g
	return c.ws.gemm.ConvForwardBatchInto(y, c.w, c.b, x, g)
}

// Backward implements Layer: BackwardParams plus the input gradient.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	c.BackwardParams(dy)
	g := c.geom
	dx := c.ws.dx.Ensure(c.x.Dim(0), c.InC, g.InH, g.InW)
	return c.ws.gemm.ConvInputGradBatchInto(dx, c.w, dy, g)
}

// BackwardParams writes dL/dW and dL/db from dy without computing the
// input gradient: the half of Backward a first layer needs when nothing
// upstream consumes dL/dx. The geometry is the cached training
// geometry, not whatever the last Forward saw. (The cached input's
// *contents* still require that no other Forward ran since the matching
// training pass — the package-level buffer-ownership rule.)
func (c *Conv2D) BackwardParams(dy *tensor.Tensor) {
	if c.x == nil {
		panic("nn: Conv2D.Backward called before training-mode Forward")
	}
	c.ws.gemm.ConvWeightGradBatchInto(c.dw, c.db, dy, c.x, c.geom)
}

func (c *Conv2D) sharePanels(p *tensor.Panels) { c.ws.gemm.Panels = p }

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.b} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dw, c.db} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s cannot follow per-sample shape %v", c.Name(), in))
	}
	g := tensor.ConvGeom{
		InC: c.InC, InH: in[1], InW: in[2],
		KH: c.KH, KW: c.KW, StrideH: c.Stride, StrideW: c.Stride,
		PadH: c.Pad, PadW: c.Pad,
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return []int{c.OutC, g.OutH(), g.OutW()}
}

// FwdFLOPs implements Layer: 2*K²*inC multiply-adds per output element.
func (c *Conv2D) FwdFLOPs(in []int) int64 {
	out := c.OutShape(in)
	perOut := 2 * int64(c.InC) * int64(c.KH) * int64(c.KW)
	return perOut * int64(prod(out))
}
