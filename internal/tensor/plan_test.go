package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/testutil"
)

// planBatches is the geometry sequence a layer's plans meet in a run: a
// full training batch, a ragged last one, a full one again, then an
// evaluation chunk and its remainder.
var planBatches = []int{16, 8, 16, 256, 44}

// planProducts runs the six layer products at batch n on the given
// GEMMs — dense's three on d, the convolution's on c — or, with d and c
// nil, through the package functions, and returns every output.
func planProducts(d, c *GEMM, n int, seed int64) [][]float64 {
	const in, out = 24, 13
	g := ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const outC = 5
	rng := rand.New(rand.NewSource(seed))
	x, w := New(n, in).RandNormal(rng, 0, 1), New(in, out).RandNormal(rng, 0, 1)
	dy := New(n, out).RandNormal(rng, 0, 1)
	y, dx, dw := New(n, out), New(n, in), New(in, out)

	k, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	imgs, cw, cb := New(n, g.InC, g.InH, g.InW).RandNormal(rng, 0, 1), New(outC, k).RandNormal(rng, 0, 1), New(outC).RandNormal(rng, 0, 1)
	cdy := New(n, outC, spatial).RandNormal(rng, 0, 1)
	cy, cdx, cdw, cdb := New(n, outC, spatial), New(n, g.InC, g.InH, g.InW), New(outC, k), New(outC)

	if d == nil {
		DenseForwardInto(y, x, w)
		DenseInputGradInto(dx, dy, w)
		MatMulTransAIntoOp("dW", dw, x, dy)
		ConvForwardBatchInto(cy, cw, cb, imgs, g)
		ConvWeightGradBatchInto(cdw, cdb, cdy, imgs, g)
		ConvInputGradBatchInto(cdx, cw, cdy, g)
	} else {
		d.DenseForwardInto(y, x, w)
		d.DenseInputGradInto(dx, dy, w)
		d.MatMulTransAIntoOp("dW", dw, x, dy)
		c.ConvForwardBatchInto(cy, cw, cb, imgs, g)
		c.ConvWeightGradBatchInto(cdw, cdb, cdy, imgs, g)
		c.ConvInputGradBatchInto(cdx, cw, cdy, g)
	}
	return [][]float64{y.Data, dx.Data, dw.Data, cy.Data, cdw.Data, cdb.Data, cdx.Data}
}

// TestGEMMMatchesPackageFunctionsAcrossShapes drives the plans a dense
// and a convolution layer keep — sharing one Panels, as the layers of a
// Sequential do — through a training run's batch sizes and an
// evaluation's, and requires every product to equal the package
// function's bit for bit, and a fresh GEMM's, at widths 1 and 2: a plan
// whose tables or panels survive from a call of another shape must
// change no bit.
func TestGEMMMatchesPackageFunctionsAcrossShapes(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	names := []string{"dense forward", "dense input gradient", "dense weight gradient",
		"conv forward", "conv weight gradient", "conv bias gradient", "conv input gradient"}
	for _, width := range []int{1, 2} {
		parallel.SetWorkers(width)
		shared := new(Panels)
		d, c := &GEMM{Panels: shared}, &GEMM{Panels: shared}
		for i, n := range planBatches {
			seed := int64(100*width + i)
			got := planProducts(d, c, n, seed)
			want := planProducts(nil, nil, n, seed)
			fresh := planProducts(new(GEMM), new(GEMM), n, seed)
			for j, name := range names {
				what := fmt.Sprintf("width %d, batch %d (call %d): %s", width, n, i, name)
				testutil.RequireSameBits(t, what+" vs package function", got[j], want[j])
				testutil.RequireSameBits(t, what+" vs fresh GEMM", got[j], fresh[j])
			}
		}
	}
}

// TestGEMMShapeChangesAllocateNothing pins the growth rule: once a GEMM
// has served a full and a ragged batch, going from one to the other and
// back again allocates nothing.
func TestGEMMShapeChangesAllocateNothing(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	const in, out = 24, 13
	g := ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const outC = 5
	rng := rand.New(rand.NewSource(1))
	k, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	w, cw, cb := New(in, out).RandNormal(rng, 0, 1), New(outC, k).RandNormal(rng, 0, 1), New(outC)
	type batch struct{ x, dy, y, dx, imgs, cdy, cy, cdx *Tensor }
	mk := func(n int) batch {
		return batch{New(n, in).RandNormal(rng, 0, 1), New(n, out).RandNormal(rng, 0, 1), New(n, out), New(n, in),
			New(n, g.InC, g.InH, g.InW).RandNormal(rng, 0, 1), New(n, outC, spatial).RandNormal(rng, 0, 1),
			New(n, outC, spatial), New(n, g.InC, g.InH, g.InW)}
	}
	full, ragged := mk(16), mk(8)
	dw, cdw, cdb := New(in, out), New(outC, k), New(outC)
	var d, c GEMM
	step := func(b batch) {
		d.DenseForwardInto(b.y, b.x, w)
		d.DenseInputGradInto(b.dx, b.dy, w)
		d.MatMulTransAIntoOp("dW", dw, b.x, b.dy)
		c.ConvForwardBatchInto(b.cy, cw, cb, b.imgs, g)
		c.ConvWeightGradBatchInto(cdw, cdb, b.cdy, b.imgs, g)
		c.ConvInputGradBatchInto(b.cdx, cw, b.cdy, g)
	}
	step(full)
	step(ragged)
	testutil.MaxAllocs(t, "full, ragged, full", 0, func() {
		step(full)
		step(ragged)
		step(full)
	})
}

// TestPackageFunctionsConcurrent runs the package functions from four
// goroutines at once, each on its own operands, at two workers: the
// GEMMs they borrow from the pool and the buffers they lease must never
// be shared by two calls at once (run it under -race), and every result
// must equal the one computed alone.
func TestPackageFunctionsConcurrent(t *testing.T) {
	parallel.SetWorkers(2)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	const callers = 4
	want := make([][][]float64, callers)
	for c := range want {
		want[c] = planProducts(nil, nil, planBatches[c], int64(c))
	}
	const reps = 5
	got := make([][][][]float64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				got[c] = append(got[c], planProducts(nil, nil, planBatches[c], int64(c)))
			}
		}()
	}
	wg.Wait()
	for c := range got {
		for rep, outs := range got[c] {
			for j := range outs {
				testutil.RequireSameBits(t, fmt.Sprintf("caller %d, call %d, product %d", c, rep, j), outs[j], want[c][j])
			}
		}
	}
}
