package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// TestLayerPlansMatchPackageFunctions trains a Dense and a Conv2D
// through a run's batch sizes — full, ragged, full — and then evaluates
// an evaluation chunk and its remainder, at widths 1 and 2, and requires
// every output and gradient to equal, bit for bit, what the tensor
// package functions (the forward products) or a fresh GEMM (the
// gradients) compute from the same operands: the plans a layer keeps
// between calls change no bit.
func TestLayerPlansMatchPackageFunctions(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, width := range []int{1, 2} {
		parallel.SetWorkers(width)
		rng := rand.New(rand.NewSource(int64(width)))
		d := NewDense(rng, 24, 13)
		c := NewConv2D(rng, 2, 5, 3, 1, 1)
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		for i, n := range []int{16, 8, 16, 256, 44} {
			what := fmt.Sprintf("width %d, batch %d (call %d)", width, n, i)
			train := i < 3
			x := tensor.New(n, 24).RandNormal(rng, 0, 1)
			y := d.Forward(x, train)
			want := tensor.New(n, 13)
			tensor.DenseForwardInto(want, x, d.w).AddRowVector(d.b)
			testutil.RequireSameBits(t, what+": dense forward", y.Data, want.Data)

			img := tensor.New(n, 2, 6, 5).RandNormal(rng, 0, 1)
			cy := c.Forward(img, train)
			cwant := tensor.New(n, 5, g.OutH()*g.OutW())
			tensor.ConvForwardBatchInto(cwant, c.w, c.b, img, g)
			testutil.RequireSameBits(t, what+": conv forward", cy.Data, cwant.Data)
			if !train {
				continue
			}

			var fresh tensor.GEMM
			dy := tensor.New(n, 13).RandNormal(rng, 0, 1)
			dx := d.Backward(dy)
			wantDx, wantDw := tensor.New(n, 24), tensor.New(24, 13)
			fresh.DenseInputGradInto(wantDx, dy, d.w)
			fresh.MatMulTransAIntoOp("dW", wantDw, x, dy)
			testutil.RequireSameBits(t, what+": dense input gradient", dx.Data, wantDx.Data)
			testutil.RequireSameBits(t, what+": dense weight gradient", d.dw.Data, wantDw.Data)

			cdy := tensor.New(n, 5, g.OutH()*g.OutW()).RandNormal(rng, 0, 1)
			cdx := c.Backward(cdy)
			wantCdx, wantCdw, wantCdb := tensor.New(n, 2, 6, 5), tensor.New(5, 18), tensor.New(5)
			fresh.ConvInputGradBatchInto(wantCdx, c.w, cdy, g)
			fresh.ConvWeightGradBatchInto(wantCdw, wantCdb, cdy, img, g)
			testutil.RequireSameBits(t, what+": conv input gradient", cdx.Data, wantCdx.Data)
			testutil.RequireSameBits(t, what+": conv weight gradient", c.dw.Data, wantCdw.Data)
			testutil.RequireSameBits(t, what+": conv bias gradient", c.db.Data, wantCdb.Data)
		}
	}
}
