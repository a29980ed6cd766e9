package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gsfl/internal/parallel"
)

// Tests for the GEMM engine. The exact-mode contract is bitwise:
// every shape and every transpose variant must reproduce a naive
// single-accumulator ascending-k reference bit for bit — that is the
// property the repo-wide determinism guarantee rests on.

// naiveMatMul is the reference contract: dst = a @ b with one
// accumulator per output element, ascending k, separate multiply then
// add. a is (m×k), b is (k×n).
func naiveMatMul(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// naiveTransA computes dst = atᵀ @ b with at stored (k×m).
func naiveTransA(dst, at, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at[p*m+i] * b[p*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

// naiveTransB computes dst = a @ btᵀ with bt stored (n×k).
func naiveTransB(dst, a, bt []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bt[j*k+p]
			}
			dst[i*n+j] = s
		}
	}
}

// mm is the allocating a @ b the algebraic tests read best with.
func mm(a, b *Tensor) *Tensor {
	return MatMulInto(New(a.shape[0], b.shape[1]), a, b)
}

// transposed is the materialized aᵀ of a 2-D tensor, the reference the
// transposed-operand kernels are checked against. Production code has
// no such function: every caller multiplies by a transpose in place.
func transposed(t *Tensor) *Tensor {
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j, v := range t.Data[i*c : (i+1)*c] {
			out.Data[j*r+i] = v
		}
	}
	return out
}

// im2colRef materializes one CHW image's column matrix — row
// (c,kh,kw), column (oh,ow), zero where the window hangs over the
// padding — which the implicit-GEMM conv kernels index without ever
// building. Production code has no such function; this naive one is the
// oracle the fused kernels are checked against bit for bit.
func im2colRef(dst, src []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := (c*g.KH+kh)*g.KW + kw
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih, iw := oh*g.StrideH-g.PadH+kh, ow*g.StrideW-g.PadW+kw
						v := 0.0
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							v = src[(c*g.InH+ih)*g.InW+iw]
						}
						dst[(row*outH+oh)*outW+ow] = v
					}
				}
			}
		}
	}
}

// fillMixed fills buf with normal draws, zeroing roughly a third of the
// entries — the post-ReLU sparsity pattern the old kernels special-cased
// with a skip branch, so any +0/-0 or skip-dependence bug surfaces here.
func fillMixed(rng *rand.Rand, buf []float64) {
	for i := range buf {
		if rng.Intn(3) == 0 {
			buf[i] = 0
		} else {
			buf[i] = rng.NormFloat64()
		}
	}
}

// requireBitEqual fails on the first element whose bits differ.
func requireBitEqual(t *testing.T, what string, got, want []float64, m, k, n int) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (m=%d k=%d n=%d): element %d = %v (bits %016x), want %v (bits %016x)",
				what, m, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGEMMExhaustiveSmallShapes sweeps every (m,k,n) in 1..17 across
// every product orientation and checks the public matrix entry points
// against the naive reference, bit for bit. 17 crosses the
// MR=4/NR=8 tile edges, so full tiles, ragged edges, degenerate
// m < MR / n < NR panels and (where the hardware has them) pairs are all
// covered: once with the active row kernel and once with the portable
// one swapped in, which no AVX2 host would otherwise run.
func TestGEMMExhaustiveSmallShapes(t *testing.T) {
	t.Run("active", checkGEMMExhaustiveSmallShapes)
	t.Run("generic", func(t *testing.T) {
		defer func(k, pair rowKernFunc) { rowKernExact, rowKernExactPair = k, pair }(rowKernExact, rowKernExactPair)
		rowKernExact, rowKernExactPair = rowKernExactGeneric, nil
		checkGEMMExhaustiveSmallShapes(t)
	})
}

func checkGEMMExhaustiveSmallShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const max = 17
	a := make([]float64, max*max)
	b := make([]float64, max*max)
	got := make([]float64, max*max)
	want := make([]float64, max*max)
	for m := 1; m <= max; m++ {
		for k := 1; k <= max; k++ {
			for n := 1; n <= max; n++ {
				fillMixed(rng, a[:m*k])
				fillMixed(rng, b[:k*n])
				naiveMatMul(want, a, b, m, k, n)
				MatMulInto(FromSlice(got[:m*n], m, n), FromSlice(a[:m*k], m, k), FromSlice(b[:k*n], k, n))
				requireBitEqual(t, "MatMulInto", got[:m*n], want[:m*n], m, k, n)
				DenseForwardInto(FromSlice(got[:m*n], m, n), FromSlice(a[:m*k], m, k), FromSlice(b[:k*n], k, n))
				requireBitEqual(t, "DenseForwardInto", got[:m*n], want[:m*n], m, k, n)

				// at is (k×m): reuse a's buffer with the transposed fill.
				fillMixed(rng, a[:k*m])
				naiveTransA(want, a, b, m, k, n)
				testGM.MatMulTransAIntoOp("MatMulTransAInto", FromSlice(got[:m*n], m, n), FromSlice(a[:k*m], k, m), FromSlice(b[:k*n], k, n))
				requireBitEqual(t, "MatMulTransAInto", got[:m*n], want[:m*n], m, k, n)

				// bt is (n×k): W, (in×out), read as Wᵀ.
				fillMixed(rng, a[:m*k])
				fillMixed(rng, b[:n*k])
				naiveTransB(want, a, b, m, k, n)
				testGM.DenseInputGradInto(FromSlice(got[:m*n], m, n), FromSlice(a[:m*k], m, k), FromSlice(b[:n*k], n, k))
				requireBitEqual(t, "DenseInputGradInto", got[:m*n], want[:m*n], m, k, n)
			}
		}
	}
}

// TestGEMMZeroK pins the degenerate inner dimension: every entry must
// fully overwrite dst with zeros, not leave stale values, and must not
// hand its do-while kernel an empty offset table (a kernel overhanging
// its input has no output positions, which is the conv dW's k; a
// convolution with no output channels has no terms in its input
// gradient).
func TestGEMMZeroK(t *testing.T) {
	g1 := ConvGeom{InC: 2, InH: 1, InW: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1} // 2 taps, 3 positions
	for _, c := range []struct {
		name string
		got  *Tensor
	}{
		{"MatMulInto", MatMulInto(Full(7, 2, 3), New(2, 0), New(0, 3))},
		{"MatMulTransAInto", testGM.MatMulTransAIntoOp("MatMulTransAInto", Full(7, 2, 3), New(0, 2), New(0, 3))},
		{"DenseForwardInto", DenseForwardInto(Full(7, 2, 3), New(2, 0), New(0, 3))},
		{"DenseInputGradInto", testGM.DenseInputGradInto(Full(7, 2, 3), New(2, 0), New(3, 0))},
		{"ConvInputGradBatchInto", testGM.ConvInputGradBatchInto(Full(7, 2, 2, 1, 3), New(0, 2), New(2, 0, 1, 3), g1)},
	} {
		for i, v := range c.got.Data {
			if v != 0 {
				t.Fatalf("%s k=0 output element %d = %v, want 0", c.name, i, v)
			}
		}
	}
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	dw := New(2, 9)
	dw.Fill(7)
	ConvMatMulTransBInto(dw, New(2, 0), make([]float64, 4), g)
	for i, v := range dw.Data {
		if v != 0 {
			t.Fatalf("conv k=0 output element %d = %v, want 0", i, v)
		}
	}
	// The batch call's k is every image's positions, and its bias
	// gradient is written too: with no positions, or with no images.
	for _, n := range []int{2, 0} {
		dw, db := Full(7, 2, 9), Full(7, 2)
		testGM.ConvWeightGradBatchInto(dw, db, New(n, 2, 0), New(n, 1, 2, 2), g)
		for i, v := range append(dw.Data, db.Data...) {
			if v != 0 {
				t.Fatalf("ConvWeightGradBatchInto k=0 over %d images: element %d = %v, want 0", n, i, v)
			}
		}
	}
}

// TestRowPlanRefusesShortX pins the row-indirect plan's one bounds
// check: its kernels index x in assembly with none, so a plan whose
// largest row plus largest koff — past rows included — falls outside x
// panics when it is shaped, and one that fits exactly does not. One
// plan takes every case, so the check also holds when the geometry is
// the last call's and only x is shorter.
func TestRowPlanRefusesShortX(t *testing.T) {
	var p rowPlan
	repeated := func(koff, rows offsetGrid, pastRow, xLen, reps, shift int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		p.shape(3, koff, rows, pastRow, xLen, reps, shift)
		return false
	}
	build := func(koff, rows offsetGrid, pastRow, xLen int) bool {
		return repeated(koff, rows, pastRow, xLen, 1, 0)
	}
	// koff reaches 15, rows 3 (a full block of four): x needs 19 elements.
	if build(line(4, 5), line(4, 1), 0, 19) {
		t.Fatal("plan that fits x exactly panicked")
	}
	if !build(line(4, 5), line(4, 1), 0, 18) {
		t.Fatal("plan reading x[18] of 18 elements did not panic")
	}
	// Three rows leave a past row in the block: it is read too.
	if !build(line(4, 5), line(3, 1), 9, 20) {
		t.Fatal("plan whose past row reads x[24] of 20 elements did not panic")
	}
	// The operand aᵀ@b reads in place — dy (k×n) for a dense layer's dW
	// — through the tables MatMulTransAIntoOp builds: koff line(k, n),
	// rows line(n, 1), past rows at 0. With k = 4 and n = 6 (a ragged
	// second block) it must hold all k·n = 24 elements.
	for _, xLen := range []int{24, 23} {
		if got, want := build(line(4, 6), line(6, 1), 0, xLen), xLen < 24; got != want {
			t.Fatalf("aᵀ@b plan over a %d-element dy: panicked = %v, want %v", xLen, got, want)
		}
	}
	// The input gradient's tap table runs backwards from its origin: its
	// largest offset is the first tap's, of the last output channel. Two
	// channels of 3×3 canvas planes and 2×2 taps reach 9 + 3 + 1 = 13;
	// the 2×2 pixels (rows 0, 1, 3, 4, a full block) reach 4.
	taps := offsetGrid{o: 4, d0: 2, d1: 2, d2: 2, s0: -3, s1: -1, s2: 9}
	pixels := offsetGrid{d0: 1, d1: 2, d2: 2, s1: 3, s2: 1}
	for _, xLen := range []int{18, 17} {
		if got, want := build(taps, pixels, 0, xLen), xLen < 18; got != want {
			t.Fatalf("input-gradient plan over a %d-element canvas: panicked = %v, want %v", xLen, got, want)
		}
	}
	// The weight gradient reads koff once per image, each pass against x
	// shifted by one canvas: the last pass decides. koff reaches 15 and
	// rows 3; the third of three passes 20 apart reaches 18 + 40.
	for _, xLen := range []int{59, 58} {
		if got, want := repeated(line(4, 5), line(4, 1), 0, xLen, 3, 20), xLen < 59; got != want {
			t.Fatalf("three-pass plan over a %d-element x: panicked = %v, want %v", xLen, got, want)
		}
	}
}

// TestMatMulNonFiniteIsShapeIndependent pins IEEE propagation through
// every orientation at shapes on both sides of the former dispatch
// floor: 0·Inf and 0·NaN are NaN whatever the product's size or the
// worker count, so a diverged model evaluates to the same loss whether
// the test set leaves a 3-row or a 16-row last batch. Elements the
// non-finite operand does not feed stay exactly zero.
func TestMatMulNonFiniteIsShapeIndependent(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	shapes := [][3]int{{2, 3, 5}, {3, 64, 43}, {8, 16, 8}, {16, 64, 43}}
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, bad := range []float64{math.Inf(1), math.NaN()} {
				a := New(m, k) // all zeros, in either orientation
				at := New(k, m)
				b := New(k, n)
				bt := New(n, k)
				b.Data[0], bt.Data[0] = bad, bad
				for _, c := range []struct {
					name string
					got  *Tensor
				}{
					{"MatMulInto", MatMulInto(New(m, n), a, b)},
					{"MatMulTransAInto", testGM.MatMulTransAIntoOp("MatMulTransAInto", New(m, n), at, b)},
					{"DenseForwardInto", DenseForwardInto(New(m, n), a, b)},
					{"DenseInputGradInto", testGM.DenseInputGradInto(New(m, n), a, bt)},
				} {
					// Element (i,0) multiplies a zero by the non-finite entry.
					for i := 0; i < m; i++ {
						if v := c.got.Data[i*n]; !math.IsNaN(v) {
							t.Fatalf("%s %dx%dx%d workers=%d: 0*%v gave d[%d,0] = %v, want NaN", c.name, m, k, n, workers, bad, i, v)
						}
						for j := 1; j < n; j++ {
							if v := c.got.Data[i*n+j]; v != 0 {
								t.Fatalf("%s %dx%dx%d workers=%d: d[%d,%d] = %v, want 0", c.name, m, k, n, workers, i, j, v)
							}
						}
					}
				}
			}
		}
	}
}

// convGeoms are the shapes the fused-conv tests sweep: odd sizes,
// strides, 1×1 kernels, zero padding, and one case with several full
// tiles in both directions.
var convGeoms = []ConvGeom{
	{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 3, InH: 8, InW: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	{InC: 2, InH: 7, InW: 7, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 0, PadW: 1},
	{InC: 4, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
}

// TestConvMatMulMatchesIm2Col checks the implicit-GEMM conv kernels
// against the two-step reference they replaced — materialize the column
// matrix with im2colRef, then run the naive GEMM over it — bit for bit, in
// both the forward (W @ col) and weight-gradient (dy @ colᵀ) shapes: once
// with the active row kernel and once with the portable one swapped in,
// which no AVX2 host would otherwise run.
func TestConvMatMulMatchesIm2Col(t *testing.T) {
	t.Run("active", checkConvMatMulMatchesIm2Col)
	t.Run("generic", func(t *testing.T) {
		defer func(k, pair rowKernFunc) { rowKernExact, rowKernExactPair = k, pair }(rowKernExact, rowKernExactPair)
		rowKernExact, rowKernExactPair = rowKernExactGeneric, nil
		checkConvMatMulMatchesIm2Col(t)
	})
}

func checkConvMatMulMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range convGeoms {
		if err := g.Validate(); err != nil {
			t.Fatalf("geom %+v: %v", g, err)
		}
		colRows := g.InC * g.KH * g.KW
		spatial := g.OutH() * g.OutW()
		img := make([]float64, g.ImageSize())
		fillMixed(rng, img)
		cols := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
		im2colRef(cols, img, g)

		for _, outC := range []int{3, 8, 19} {
			w := New(outC, colRows)
			fillMixed(rng, w.Data)
			want := make([]float64, outC*spatial)
			naiveMatMul(want, w.Data, cols, outC, colRows, spatial)
			got := ConvMatMulInto(New(outC, spatial), w, img, g)
			requireBitEqual(t, "ConvMatMulInto", got.Data, want, outC, colRows, spatial)

			dy := New(outC, spatial)
			fillMixed(rng, dy.Data)
			wantDW := make([]float64, outC*colRows)
			naiveTransB(wantDW, dy.Data, cols, outC, spatial, colRows)
			gotDW := ConvMatMulTransBInto(New(outC, colRows), dy, img, g)
			requireBitEqual(t, "ConvMatMulTransBInto", gotDW.Data, wantDW, outC, spatial, colRows)
		}
	}
}

// fillHostile fills buf with normal draws and, one element in eight, a
// value the kernels must treat exactly as IEEE says: a signed zero, a
// subnormal, an infinity or a NaN.
func fillHostile(rng *rand.Rand, buf []float64) {
	hostile := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range buf {
		if rng.Intn(8) == 0 {
			buf[i] = hostile[rng.Intn(len(hostile))]
		} else {
			buf[i] = rng.NormFloat64()
		}
	}
}

// requireSameFloats is requireBitEqual with NaN-ness compared in place
// of NaN payloads, which x86 takes from whichever operand came first.
func requireSameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) != math.IsNaN(want[i]) ||
			!math.IsNaN(want[i]) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %016x), want %v (bits %016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGenericKernelsMatchActive drives the row-indirect kernel through
// its portable body and whatever init installed (the assembly, on an
// AVX2 host) on the same operands, and requires the same bits: the
// portable kernel is the exact mode's definition and the only kernel off
// amd64, yet nothing else calls it where the assembly is available. Both
// store forms are held: the overwrite, and the add onto a tile that
// already holds signed zeros, subnormals, infinities, NaNs and values
// near the overflow threshold. The pair subtest is the 8×8 case; the
// fast subtest holds the FMA body, both forms, by tolerance.
func TestGenericKernelsMatchActive(t *testing.T) {
	t.Logf("kernels: avx2=%v fma=%v avx512=%v", cpu.avx2, cpu.fma, cpu.avx512)
	t.Run("tile", testTileKernelsMatchGeneric)
	t.Run("pair", testPairKernelsMatchTwoGenericTiles)
	t.Run("fast", testFastKernelNearGeneric)
}

// storeForms names the kernels' two store forms, by their add argument.
var storeForms = map[bool]string{false: "store", true: "add"}

// fillTile writes what an add-form call finds in c: hostile values
// (fillHostile), and one element in four ±1e308, whose sum with a
// product overflows or not by the last bit.
func fillTile(rng *rand.Rand, c []float64) {
	fillHostile(rng, c)
	for i := range c {
		if rng.Intn(4) == 0 {
			c[i] = math.Copysign(1e308, rng.NormFloat64())
		}
	}
}

func testTileKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const ldc = 11
	for k := 1; k <= 40; k++ {
		for trial := 0; trial < 8; trial++ {
			bp := make([]float64, k*gemmNR)
			fillHostile(rng, bp)

			// Row r of the tile reads x at rows[r]+koff[kk]: overlapping
			// windows of one buffer, as a convolution's are.
			x, rows, koff := drawRowKernelOperands(rng, k, gemmMR)
			for add, form := range storeForms {
				got, want := make([]float64, gemmNR*ldc), make([]float64, gemmNR*ldc)
				fillTile(rng, want)
				copy(got, want)
				rowKernExact(x, rows, koff, bp, got, ldc, add)
				rowKernExactGeneric(x, rows, koff, bp, want, ldc, add)
				requireSameFloats(t, fmt.Sprintf("row kernel %s k=%d", form, k), got, want)
			}
		}
	}
}

// testFastKernelNearGeneric holds the fast kernel, which may fuse each
// multiply into its add, within a rounding error per term of the exact
// one, in both store forms, on finite operands.
func testFastKernelNearGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const ldc = 5
	for k := 1; k <= 40; k++ {
		bp := New(k*gemmNR).RandNormal(rng, 0, 1).Data
		x := New(3*k+gemmMR).RandNormal(rng, 0, 1).Data
		_, rows, koff := drawRowKernelOperands(rng, k, gemmMR)
		for add, form := range storeForms {
			got := New(gemmNR*ldc).RandNormal(rng, 0, 1).Data
			want := append([]float64(nil), got...)
			rowKernFast(x, rows, koff, bp, got, ldc, add)
			rowKernExactGeneric(x, rows, koff, bp, want, ldc, add)
			for j := 0; j < gemmNR; j++ {
				for r := 0; r < gemmMR; r++ {
					// The scale of element (r, j)'s terms bounds each
					// step's rounding.
					diff, bound := math.Abs(got[j*ldc+r]-want[j*ldc+r]), 0.0
					for kk, off := range koff {
						bound += math.Abs(bp[kk*gemmNR+j] * x[rows[r]+off])
					}
					if add {
						bound += 4 // the prefilled value is a normal draw
					}
					if diff > 1e-12*bound {
						t.Fatalf("fast row kernel %s k=%d element (%d,%d): %v vs exact %v", form, k, r, j, got[j*ldc+r], want[j*ldc+r])
					}
				}
			}
		}
	}
}

// drawRowKernelOperands draws a row-indirect kernel's image-side
// operands: a hostile buffer, nrows random (so overlapping) row bases
// and a k-long offset table into it.
func drawRowKernelOperands(rng *rand.Rand, k, nrows int) (x []float64, rows, koff []int) {
	x = make([]float64, 3*k+nrows)
	fillHostile(rng, x)
	rows = make([]int, nrows)
	for r := range rows {
		rows[r] = rng.Intn(nrows)
	}
	koff = make([]int, k)
	for kk := range koff {
		koff[kk] = rng.Intn(3 * k)
	}
	return x, rows, koff
}

// testPairKernelsMatchTwoGenericTiles holds the pair kernel to two
// portable 4×8 calls on the same panel, in both store forms — the
// pairing must not be visible in any bit. The tiles sit in a
// canary-filled buffer at a column stride wider than the tile, so a
// store outside the tile is caught as well; the add form finds the tile
// itself prefilled as testTileKernelsMatchGeneric's does.
func testPairKernelsMatchTwoGenericTiles(t *testing.T) {
	if rowKernExactPair == nil {
		t.Skip("no pair kernel installed: it needs CPUID leaf 7 EBX bit 16 (AVX512F) with opmask and ZMM state enabled in XCR0")
	}
	rng := rand.New(rand.NewSource(37))
	const ldc = 13
	fresh := func(n int) []float64 {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = math.Float64frombits(canary)
		}
		return buf
	}
	for k := 1; k <= 40; k++ {
		for trial := 0; trial < 8; trial++ {
			bp := make([]float64, k*gemmNR)
			fillHostile(rng, bp)
			x, rows, koff := drawRowKernelOperands(rng, k, 2*gemmMR)
			for add, form := range storeForms {
				got, want := fresh(gemmNR*ldc), fresh(gemmNR*ldc)
				for j := 0; j < gemmNR; j++ {
					fillTile(rng, want[j*ldc:][:2*gemmMR])
				}
				copy(got, want)
				rowKernExactPair(x, rows, koff, bp, got, ldc, add)
				rowKernExactGeneric(x, rows, koff, bp, want, ldc, add)
				rowKernExactGeneric(x, rows[gemmMR:], koff, bp, want[gemmMR:], ldc, add)
				requireSameFloats(t, fmt.Sprintf("row pair kernel %s k=%d", form, k), got, want)
			}
		}
	}
}

// productCase is one call of a product entry on drawn operands, and the
// naive reference's result for it.
type productCase struct {
	name string
	run  func() []float64
	want []float64
}

// matrixCases draws operands for the four matrix entries at (m, k, n).
// Each tiles n into row blocks against m outputs a row, over k.
func matrixCases(rng *rand.Rand, m, k, n int) []productCase {
	a, at, b, bt := New(m, k), New(k, m), New(k, n), New(n, k)
	for _, x := range []*Tensor{a, at, b, bt} {
		fillMixed(rng, x.Data)
	}
	ab, atb, abt := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
	naiveMatMul(ab, a.Data, b.Data, m, k, n)
	naiveTransA(atb, at.Data, b.Data, m, k, n)
	naiveTransB(abt, a.Data, bt.Data, m, k, n)
	return []productCase{
		{"MatMulInto", func() []float64 { return MatMulInto(New(m, n), a, b).Data }, ab},
		{"DenseForwardInto", func() []float64 { return DenseForwardInto(New(m, n), a, b).Data }, ab},
		{"MatMulTransAInto", func() []float64 { return testGM.MatMulTransAIntoOp("MatMulTransAInto", New(m, n), at, b).Data }, atb},
		{"DenseInputGradInto", func() []float64 { return testGM.DenseInputGradInto(New(m, n), a, bt).Data }, abt},
	}
}

// convCases draws operands for the conv entries over g with outC output
// channels: the two single-image products, and the three batch calls
// over two images, the forward one with a bias. The input gradient's
// reference is col2im of the naive column gradients.
func convCases(rng *rand.Rand, g ConvGeom, outC int) []productCase {
	const batch = 2
	taps, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	imgs, w := New(batch, g.InC, g.InH, g.InW), New(outC, taps)
	bias, dys := New(outC), New(batch, outC, spatial)
	for _, x := range []*Tensor{imgs, w, bias, dys} {
		fillMixed(rng, x.Data)
	}
	img0, dy0 := imgs.Data[:g.ImageSize()], FromSlice(dys.Data[:outC*spatial], outC, spatial)
	out0, dw0 := make([]float64, outC*spatial), make([]float64, outC*taps)
	outs, dxs := make([]float64, batch*outC*spatial), make([]float64, batch*g.ImageSize())
	cols := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	for i := 0; i < batch; i++ {
		im2colRef(cols, imgs.Data[i*g.ImageSize():], g)
		out := outs[i*outC*spatial:][:outC*spatial]
		naiveMatMul(out, w.Data, cols, outC, taps, spatial)
		if i == 0 {
			copy(out0, out)
			naiveTransB(dw0, dy0.Data, cols, outC, spatial, taps)
		}
		for j := range out {
			out[j] += bias.Data[j/spatial]
		}
		naiveTransA(cols, w.Data, dys.Data[i*outC*spatial:], taps, outC, spatial)
		col2imRef(dxs[i*g.ImageSize():], cols, g)
	}
	return []productCase{
		{"ConvMatMulInto", func() []float64 { return ConvMatMulInto(New(outC, spatial), w, img0, g).Data }, out0},
		{"ConvMatMulTransBInto", func() []float64 { return ConvMatMulTransBInto(New(outC, taps), dy0, img0, g).Data }, dw0},
		{"ConvForwardBatchInto", func() []float64 {
			return ConvForwardBatchInto(New(batch, outC, spatial), w, bias, imgs, g).Data
		}, outs},
		{"ConvInputGradBatchInto", func() []float64 {
			return testGM.ConvInputGradBatchInto(New(batch, g.InC, g.InH, g.InW), w, dys, g).Data
		}, dxs},
		weightGradCase(g, outC, imgs.Data, dys),
	}
}

// weightGradCase is ConvWeightGradBatchInto's entry over the images of
// imgs and the output gradients of dys, dw and db as one slice, against
// weightGradRef.
func weightGradCase(g ConvGeom, outC int, imgs []float64, dys *Tensor) productCase {
	dw, db := weightGradRef(dys, imgs, g, outC)
	return productCase{"ConvWeightGradBatchInto", func() []float64 {
		dw, db := weightGradInto(dys, imgs, g, outC)
		return append(dw, db...)
	}, append(dw, db...)}
}

// usePortablePair installs a portable pair kernel — two
// rowKernExactGeneric calls, rows 0–3 and rows 4–7 — as rowKernExactPair
// until the test ends, and returns the count of its calls. Without it
// the pair branch of rowPlan.chunk runs only where AVX-512 exists.
func usePortablePair(t *testing.T) *atomic.Int64 {
	t.Helper()
	calls := new(atomic.Int64)
	saved := rowKernExactPair
	t.Cleanup(func() { rowKernExactPair = saved })
	rowKernExactPair = func(x []float64, rows, koff []int, bp, c []float64, ldc int, add bool) {
		calls.Add(1)
		rowKernExactGeneric(x, rows, koff, bp, c, ldc, add)
		rowKernExactGeneric(x, rows[gemmMR:], koff, bp, c[gemmMR:], ldc, add)
	}
	return calls
}

// TestPairDriversMatchNaive walks the tile driver's pair rule through
// the cases it distinguishes — a pair with full and with ragged column
// panels, the odd last block, a ragged last row block — at shapes that
// clear pairMinSteps, against the naive references, at workers 1/2/8:
// with the active kernels, and with the portable pair swapped in so that
// the pair branch runs on every host. (Chunk boundaries between
// would-be partners are the fork tests' business: forkingRows /
// TestConvPackForkJoin shapes clear the gate too.)
func TestPairDriversMatchNaive(t *testing.T) {
	t.Run("active", checkPairDriversMatchNaive)
	t.Run("portable", func(t *testing.T) {
		calls := usePortablePair(t)
		checkPairDriversMatchNaive(t)
		if calls.Load() == 0 {
			t.Fatal("the portable pair kernel was never called")
		}
	})
}

func checkPairDriversMatchNaive(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(39))
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		// n is the rows the plans tile, m their outputs a row.
		for _, m := range []int{8, 11, 12, 16, 20, 23, 40} {
			for _, n := range []int{8, 13, 16, 29} {
				for _, k := range []int{64, 65, 130} {
					if !pairWorthwhile(n, k, m) {
						t.Fatalf("%d×%d×%d does not clear the pair gate: the test would miss the path it is for", m, k, n)
					}
					for _, c := range matrixCases(rng, m, k, n) {
						requireBitEqual(t, fmt.Sprintf("workers=%d %s", workers, c.name), c.run(), c.want, m, k, n)
					}
				}
			}
		}
		// The conv products: positions (forward), taps (dW) and pixels
		// (input gradient) as rows, all ragged against 8, outC with and
		// without a ragged panel, and the input gradient's 12 channels a
		// full and a ragged panel.
		g := ConvGeom{InC: 12, InH: 7, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		taps, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		for _, outC := range []int{8, 13, 24} {
			if !pairWorthwhile(spatial, taps, outC) || !pairWorthwhile(taps, spatial, outC) ||
				!pairWorthwhile(g.InH*g.InW, g.KH*g.KW*outC, g.InC) {
				t.Fatalf("conv %+v outC=%d does not clear the pair gate", g, outC)
			}
			for _, c := range convCases(rng, g, outC) {
				requireBitEqual(t, fmt.Sprintf("workers=%d %s outC=%d", workers, c.name, outC), c.run(), c.want, outC, taps, spatial)
			}
		}
	}
}

// TestPortablePairAtTheGate runs every product entry, with the portable
// pair swapped in, at pairMinSteps − 1 and at pairMinSteps pair steps
// (full 8×8 tiles times k): each must match the naive reference bit for
// bit, and must call the pair kernel exactly when it clears the gate.
func TestPortablePairAtTheGate(t *testing.T) {
	calls := usePortablePair(t)
	rng := rand.New(rand.NewSource(41))
	check := func(what string, steps int, cases []productCase) {
		t.Helper()
		if steps != pairMinSteps-1 && steps != pairMinSteps {
			t.Fatalf("%s: %d pair steps, want %d or %d: the shape misses the gate", what, steps, pairMinSteps-1, pairMinSteps)
		}
		for _, c := range cases {
			calls.Store(0)
			requireSameFloats(t, what+" "+c.name, c.run(), c.want)
			if used, want := calls.Load() > 0, steps >= pairMinSteps; used != want {
				t.Fatalf("%s %s at %d pair steps: pair kernel called = %v, want %v", what, c.name, steps, used, want)
			}
		}
	}
	steps := func(rows, k, outC int) int { return (rows / (2 * gemmMR)) * (outC / gemmNR) * k }
	// The matrix entries tile n into rows against m outputs a row.
	for _, sh := range [][3]int{{8, 63, 8}, {8, 64, 8}, {13, 21, 29}, {19, 16, 23}} {
		m, k, n := sh[0], sh[1], sh[2]
		check(fmt.Sprintf("%d×%d×%d", m, k, n), steps(n, k, m), matrixCases(rng, m, k, n))
	}
	// Each of the first two geometries puts the forward product and dW
	// at one step count: the forward tiles positions against outC over
	// taps, dW taps against outC over positions. The input gradient
	// tiles pixels against input channels over taps × outC and has
	// geometries of its own, the last two.
	for _, c := range []struct {
		g         ConvGeom
		outC      int
		inputGrad bool
	}{
		{ConvGeom{InC: 7, InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 9, false},
		{ConvGeom{InC: 16, InH: 3, InW: 5, KH: 2, KW: 2, StrideH: 1, StrideW: 1}, 8, false},
		{ConvGeom{InC: 8, InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 7, true},
		{ConvGeom{InC: 8, InH: 2, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}, 16, true},
	} {
		taps, spatial := c.g.InC*c.g.KH*c.g.KW, c.g.OutH()*c.g.OutW()
		cases := convCases(rng, c.g, c.outC)
		what := fmt.Sprintf("conv %+v outC=%d", c.g, c.outC)
		if c.inputGrad {
			check(what, steps(c.g.InH*c.g.InW, c.g.KH*c.g.KW*c.outC, c.g.InC), cases[3:4])
			continue
		}
		s := steps(spatial, taps, c.outC)
		if steps(taps, spatial, c.outC) != s {
			t.Fatalf("%s: the forward product and dW take different step counts", what)
		}
		check(what, s, cases[:3])
	}
	// The weight gradient's batch call tiles taps against outC over the
	// positions of every image, so its gate counts the whole batch: 3
	// images of 21 positions, then 4 of 16, over 9 taps.
	for _, c := range []struct {
		g           ConvGeom
		outC, batch int
	}{
		{ConvGeom{InC: 1, InH: 3, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 8, 3},
		{ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 8, 4},
	} {
		taps, spatial := c.g.InC*c.g.KH*c.g.KW, c.g.OutH()*c.g.OutW()
		imgs, dys := make([]float64, c.batch*c.g.ImageSize()), New(c.batch, c.outC, spatial)
		fillMixed(rng, imgs)
		fillMixed(rng, dys.Data)
		check(fmt.Sprintf("conv %+v outC=%d batch=%d", c.g, c.outC, c.batch), steps(taps, c.batch*spatial, c.outC),
			[]productCase{weightGradCase(c.g, c.outC, imgs, dys)})
	}
}

// TestConvNonFiniteIsShapeIndependent is the conv products' share of
// TestMatMulNonFiniteIsShapeIndependent: one +Inf or NaN entry in an
// otherwise zero dense operand (a weight forward, a dy entry for dW)
// meets a padded image a third of whose pixels are zero. 0·Inf is NaN
// whether the zero is a pixel or padding the kernel reads from its
// scratch copy, so the output is NaN exactly where the materialized
// column matrix and the naive GEMM put one, and every row the entry does
// not feed stays exactly zero — at any worker count and outC.
func TestConvNonFiniteIsShapeIndependent(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(33))
	for _, g := range convGeoms {
		colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		img := make([]float64, g.ImageSize())
		fillMixed(rng, img)
		cols := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
		im2colRef(cols, img, g)
		for _, outC := range []int{2, 8, 13} {
			for _, bad := range []float64{math.Inf(1), math.NaN()} {
				w, dy := New(outC, colRows), New(outC, spatial)
				hot := outC - 1 // the one row the bad entry feeds
				w.Data[hot*colRows+rng.Intn(colRows)] = bad
				dy.Data[hot*spatial+rng.Intn(spatial)] = bad
				wantOut := make([]float64, outC*spatial)
				naiveMatMul(wantOut, w.Data, cols, outC, colRows, spatial)
				wantDW := make([]float64, outC*colRows)
				naiveTransB(wantDW, dy.Data, cols, outC, spatial, colRows)
				for _, workers := range []int{1, 2, 8} {
					parallel.SetWorkers(workers)
					for _, c := range []struct {
						name      string
						got, want []float64
					}{
						{"ConvMatMulInto", ConvMatMulInto(New(outC, spatial), w, img, g).Data, wantOut},
						{"ConvMatMulTransBInto", ConvMatMulTransBInto(New(outC, colRows), dy, img, g).Data, wantDW},
					} {
						what := fmt.Sprintf("%s %+v outC=%d bad=%v workers=%d", c.name, g, outC, bad, workers)
						requireSameFloats(t, what, c.got, c.want)
						cold := c.got[:hot*len(c.got)/outC]
						for i, v := range cold {
							if v != 0 {
								t.Fatalf("%s: element %d of a row the entry does not feed = %v, want 0", what, i, v)
							}
						}
					}
				}
			}
		}
	}
}

// TestFastModeToleranceAndWorkerDeterminism pins the reassociating
// mode's two contracts, for the matrix entries and the conv products:
// it stays within a tight tolerance of exact mode
// (FMA changes only last-ulp rounding), and on one machine it is still
// bit-identical across worker counts (the per-element instruction
// sequence does not depend on how output rows are partitioned). The
// shapes are sized to fork (forkingRows, forkingConvOutC).
func TestFastModeToleranceAndWorkerDeterminism(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(9))
	m := forkingRows(t, 64, 40)
	a := New(m, 64).RandNormal(rng, 0, 1)
	b := New(64, 40).RandNormal(rng, 0, 1)
	g := convGeoms[len(convGeoms)-1]
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	outC := forkingConvOutC(t, g)
	imgs := New(3, g.InC, g.InH, g.InW).RandNormal(rng, 0, 1)
	img := imgs.Data[:g.ImageSize()]
	w := New(outC, colRows).RandNormal(rng, 0, 1)
	dy := New(outC, spatial).RandNormal(rng, 0, 1)
	dys := New(3, outC, spatial).RandNormal(rng, 0, 1)
	dyDense := New(m, 40).RandNormal(rng, 0, 1)
	at := New(64, m).RandNormal(rng, 0, 1)
	products := func() []*Tensor {
		return []*Tensor{
			MatMulInto(New(m, 40), a, b),
			ConvMatMulInto(New(outC, spatial), w, img, g),
			ConvMatMulTransBInto(New(outC, colRows), dy, img, g),
			DenseForwardInto(New(m, 40), a, b),
			testGM.DenseInputGradInto(New(m, 64), dyDense, b),
			testGM.MatMulTransAIntoOp("MatMulTransAInto", New(m, 40), at, b),
			testGM.ConvInputGradBatchInto(New(1, g.InC, g.InH, g.InW), w, FromSlice(dy.Data, 1, outC, spatial), g),
			testGM.ConvWeightGradBatchInto(New(outC, colRows), New(outC), dys, imgs, g),
		}
	}
	exact := products()

	release, err := AcquireNumericMode("fast")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parallel.SetWorkers(1)
	fast1 := products()
	parallel.SetWorkers(4)
	fastN := products()
	for i, name := range []string{"MatMulInto", "ConvMatMulInto", "ConvMatMulTransBInto", "DenseForwardInto", "DenseInputGradInto", "MatMulTransAInto", "ConvInputGradBatchInto", "ConvWeightGradBatchInto"} {
		if !AllClose(exact[i], fast1[i], 1e-10) {
			t.Fatalf("%s: fast mode drifted beyond tolerance from exact mode", name)
		}
		requireSameFloats(t, name+" fast workers=4 vs workers=1", fastN[i].Data, fast1[i].Data)
	}
}

// FuzzPackedGEMM drives the packing index math (panel layouts, ragged
// edge padding) and the row-indirect tables of the matrix entries with
// fuzzed shapes and checks every orientation against the naive
// references bit for bit; FuzzConvPack does the same for the conv
// products.
func FuzzPackedGEMM(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(9))
	f.Add(int64(7), uint8(4), uint8(16), uint8(8))
	f.Add(int64(11), uint8(1), uint8(1), uint8(1))
	f.Add(int64(13), uint8(17), uint8(13), uint8(24))
	f.Add(int64(17), uint8(63), uint8(2), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, mm, kk, nn uint8) {
		m := int(mm)%48 + 1
		k := int(kk)%48 + 1
		n := int(nn)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		got := make([]float64, m*n)
		want := make([]float64, m*n)

		fillMixed(rng, a)
		fillMixed(rng, b)
		naiveMatMul(want, a, b, m, k, n)
		MatMulInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
		requireBitEqual(t, "fuzz MatMulInto", got, want, m, k, n)
		DenseForwardInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
		requireBitEqual(t, "fuzz DenseForwardInto", got, want, m, k, n)

		at := make([]float64, k*m)
		fillMixed(rng, at)
		naiveTransA(want, at, b, m, k, n)
		testGM.MatMulTransAIntoOp("MatMulTransAInto", FromSlice(got, m, n), FromSlice(at, k, m), FromSlice(b, k, n))
		requireBitEqual(t, "fuzz MatMulTransAInto", got, want, m, k, n)

		bt := make([]float64, n*k)
		fillMixed(rng, bt)
		naiveTransB(want, a, bt, m, k, n)
		testGM.DenseInputGradInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(bt, n, k))
		requireBitEqual(t, "fuzz DenseInputGradInto", got, want, m, k, n)
	})
}
