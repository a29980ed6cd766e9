package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
)

// Tests for the packed GEMM engine. The exact-mode contract is bitwise:
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
// every product orientation and checks the public entry points — the
// packed engine's and the dense layer's row-indirect ones, whatever the
// shape — against the naive reference, bit for bit. 17 crosses the
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
				MatMulTransAInto(FromSlice(got[:m*n], m, n), FromSlice(a[:k*m], k, m), FromSlice(b[:k*n], k, n))
				requireBitEqual(t, "MatMulTransAInto", got[:m*n], want[:m*n], m, k, n)

				// bt is (n×k): W, (in×out), read as Wᵀ.
				fillMixed(rng, a[:m*k])
				fillMixed(rng, b[:n*k])
				naiveTransB(want, a, b, m, k, n)
				DenseInputGradInto(FromSlice(got[:m*n], m, n), FromSlice(a[:m*k], m, k), FromSlice(b[:n*k], n, k))
				requireBitEqual(t, "DenseInputGradInto", got[:m*n], want[:m*n], m, k, n)
			}
		}
	}
}

// TestGEMMZeroK pins the degenerate inner dimension: the engine must
// fully overwrite dst with zeros, not leave stale values — and the conv
// driver must not hand its do-while kernel an empty offset table (a
// kernel overhanging its input has no output positions, which is dW's k).
func TestGEMMZeroK(t *testing.T) {
	got := []float64{1, 2, 3, 4, 5, 6}
	gemmInto(got, 2, 0, 3, aSource{kind: aPlain}, nil)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("k=0 output element %d = %v, want 0", i, v)
		}
	}
	// The dense products' k is x's width and dy's: with it zero the
	// row-indirect kernel must not be handed an empty offset table.
	for _, c := range []struct {
		name string
		got  *Tensor
	}{
		{"DenseForwardInto", DenseForwardInto(Full(7, 2, 3), New(2, 0), New(0, 3))},
		{"DenseInputGradInto", DenseInputGradInto(Full(7, 2, 3), New(2, 0), New(3, 0))},
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
}

// TestRowPlanRefusesShortX pins the row-indirect plan's one bounds
// check: its kernels index x in assembly with none, so a plan whose
// largest row plus largest koff — past rows included — falls outside x
// panics when it is built, and one that fits exactly does not.
func TestRowPlanRefusesShortX(t *testing.T) {
	dense := make([]float64, 3*4)
	line := func(d, s int) offsetGrid { return offsetGrid{1, 1, d, 0, 0, s} }
	build := func(rows offsetGrid, pastRow, xLen int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		newRowPlan(dense, 3, line(4, 5), rows, pastRow, xLen).release()
		return false
	}
	// koff reaches 15, rows 3 (a full block of four): x needs 19 elements.
	if build(line(4, 1), 0, 19) {
		t.Fatal("plan that fits x exactly panicked")
	}
	if !build(line(4, 1), 0, 18) {
		t.Fatal("plan reading x[18] of 18 elements did not panic")
	}
	// Three rows leave a past row in the block: it is read too.
	if !build(line(3, 1), 9, 20) {
		t.Fatal("plan whose past row reads x[24] of 20 elements did not panic")
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
					{"MatMulTransAInto", MatMulTransAInto(New(m, n), at, b)},
					{"DenseForwardInto", DenseForwardInto(New(m, n), a, b)},
					{"DenseInputGradInto", DenseInputGradInto(New(m, n), a, bt)},
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
		cols := make([]float64, g.ColSize())
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

// TestGenericKernelsMatchActive drives both kernel families — packed
// and row-indirect — through their portable bodies and whatever init
// installed (the assembly, on an AVX2 host) on the same operands, and
// requires the same bits: the portable kernels are the exact mode's
// definition and the only kernels off amd64, yet nothing else calls them
// where the assembly is available. The pair subtest is the 8×8 case.
func TestGenericKernelsMatchActive(t *testing.T) {
	t.Logf("kernels: avx2=%v fma=%v avx512=%v", cpu.avx2, cpu.fma, cpu.avx512)
	t.Run("tile", testTileKernelsMatchGeneric)
	t.Run("pair", testPairKernelsMatchTwoGenericTiles)
}

func testTileKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const ldc = 11
	for k := 1; k <= 40; k++ {
		for trial := 0; trial < 8; trial++ {
			ap := make([]float64, k*gemmMR)
			bp := make([]float64, k*gemmNR)
			fillHostile(rng, ap)
			fillHostile(rng, bp)
			got, want := make([]float64, gemmMR*ldc), make([]float64, gemmMR*ldc)
			kernExact(k, ap, bp, got, ldc)
			ukernExactGeneric(k, ap, bp, want, ldc)
			requireSameFloats(t, fmt.Sprintf("packed kernel k=%d", k), got, want)

			// Row r of the tile reads x at rows[r]+koff[kk]: overlapping
			// windows of one buffer, as a convolution's are.
			x, rows, koff := drawRowKernelOperands(rng, k, gemmMR)
			got, want = make([]float64, gemmNR*ldc), make([]float64, gemmNR*ldc)
			rowKernExact(x, rows, koff, bp, got, ldc)
			rowKernExactGeneric(x, rows, koff, bp, want, ldc)
			requireSameFloats(t, fmt.Sprintf("row kernel k=%d", k), got, want)
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

// testPairKernelsMatchTwoGenericTiles holds each pair kernel to two
// portable 4×8 calls on the same panels — the pairing must not be
// visible in any bit. The tiles sit in a canary-filled buffer at a row
// stride wider than the tile, so a store outside the tile is caught as
// well.
func testPairKernelsMatchTwoGenericTiles(t *testing.T) {
	if kernExactPair == nil {
		t.Skip("no pair kernels on this host: they need CPUID leaf 7 EBX bit 16 (AVX512F) with opmask and ZMM state enabled in XCR0")
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
			ap := make([]float64, 2*k*gemmMR) // two adjacent A panels, as gemmChunk packs them
			bp := make([]float64, k*gemmNR)
			fillHostile(rng, ap)
			fillHostile(rng, bp)
			got, want := fresh(2*gemmMR*ldc), fresh(2*gemmMR*ldc)
			kernExactPair(k, ap, ap[k*gemmMR:], bp, got, ldc)
			ukernExactGeneric(k, ap, bp, want, ldc)
			ukernExactGeneric(k, ap[k*gemmMR:], bp, want[gemmMR*ldc:], ldc)
			requireSameFloats(t, fmt.Sprintf("packed pair kernel k=%d", k), got, want)

			x, rows, koff := drawRowKernelOperands(rng, k, 2*gemmMR)
			got, want = fresh(gemmNR*ldc), fresh(gemmNR*ldc)
			rowKernExactPair(x, rows, koff, bp, got, ldc)
			rowKernExactGeneric(x, rows, koff, bp, want, ldc)
			rowKernExactGeneric(x, rows[gemmMR:], koff, bp, want[gemmMR:], ldc)
			requireSameFloats(t, fmt.Sprintf("row pair kernel k=%d", k), got, want)
		}
	}
}

// TestPairDriversMatchNaive walks the chunk drivers' pair rule through
// the cases it distinguishes — a pair with full and with ragged column
// panels, the odd last block, a ragged last row block — at shapes that
// clear pairMinSteps, against the naive references, at workers 1/2/8.
// (Chunk boundaries between would-be partners are the fork tests'
// business: forkingRows / TestConvPackForkJoin shapes clear the gate
// too.) Without pair kernels it is one more pass over the 4×8 path.
func TestPairDriversMatchNaive(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(39))
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, m := range []int{8, 11, 12, 16, 20, 23, 40} {
			for _, n := range []int{8, 13, 16, 29} {
				for _, k := range []int{64, 65, 130} {
					if !pairWorthwhile(m, k, n) {
						t.Fatalf("%d×%d×%d does not clear the pair gate: the test would miss the path it is for", m, k, n)
					}
					a, at := make([]float64, m*k), make([]float64, k*m)
					b, bt := make([]float64, k*n), make([]float64, n*k)
					for _, s := range [][]float64{a, at, b, bt} {
						fillMixed(rng, s)
					}
					got, want := make([]float64, m*n), make([]float64, m*n)
					naiveMatMul(want, a, b, m, k, n)
					gemmInto(got, m, k, n, aSource{data: a, kind: aPlain}, b)
					requireBitEqual(t, fmt.Sprintf("workers=%d plain", workers), got, want, m, k, n)
					naiveTransA(want, at, b, m, k, n)
					gemmInto(got, m, k, n, aSource{data: at, kind: aTransposed}, b)
					requireBitEqual(t, fmt.Sprintf("workers=%d transA", workers), got, want, m, k, n)
					naiveMatMul(want, a, b, m, k, n)
					DenseForwardInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
					requireBitEqual(t, fmt.Sprintf("workers=%d DenseForwardInto", workers), got, want, m, k, n)
					naiveTransB(want, a, bt, m, k, n)
					DenseInputGradInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(bt, n, k))
					requireBitEqual(t, fmt.Sprintf("workers=%d DenseInputGradInto", workers), got, want, m, k, n)
				}
			}
		}
		// The conv products: positions (forward) and taps (dW) as rows,
		// both ragged against 8, outC with and without a ragged panel.
		g := ConvGeom{InC: 4, InH: 7, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		img := make([]float64, g.ImageSize())
		fillMixed(rng, img)
		cols := make([]float64, g.ColSize())
		im2colRef(cols, img, g)
		for _, outC := range []int{8, 13, 24} {
			if !pairWorthwhile(spatial, colRows, outC) || !pairWorthwhile(colRows, spatial, outC) {
				t.Fatalf("conv %+v outC=%d does not clear the pair gate", g, outC)
			}
			w, dy := New(outC, colRows), New(outC, spatial)
			fillMixed(rng, w.Data)
			fillMixed(rng, dy.Data)
			want := make([]float64, outC*spatial)
			naiveMatMul(want, w.Data, cols, outC, colRows, spatial)
			got := ConvMatMulInto(New(outC, spatial), w, img, g)
			requireBitEqual(t, fmt.Sprintf("workers=%d ConvMatMulInto", workers), got.Data, want, outC, colRows, spatial)
			wantDW := make([]float64, outC*colRows)
			naiveTransB(wantDW, dy.Data, cols, outC, spatial, colRows)
			gotDW := ConvMatMulTransBInto(New(outC, colRows), dy, img, g)
			requireBitEqual(t, fmt.Sprintf("workers=%d ConvMatMulTransBInto", workers), gotDW.Data, wantDW, outC, spatial, colRows)
		}
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
		cols := make([]float64, g.ColSize())
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
// mode's two contracts, for the packed engine, both conv products and
// both dense products: it stays within a tight tolerance of exact mode
// (FMA changes only last-ulp rounding), and on one machine it is still
// bit-identical across worker counts (the per-element instruction
// sequence does not depend on how output rows are partitioned). The
// shapes are sized to fork (forkingRows, forkingConvOutC; the dense
// products' m-row operand makes each W row block a chunk's worth).
func TestFastModeToleranceAndWorkerDeterminism(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(9))
	m := forkingRows(t, 64, 40)
	a := New(m, 64).RandNormal(rng, 0, 1)
	b := New(64, 40).RandNormal(rng, 0, 1)
	g := convGeoms[len(convGeoms)-1]
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	outC := forkingConvOutC(t, g)
	img := New(g.ImageSize()).RandNormal(rng, 0, 1).Data
	w := New(outC, colRows).RandNormal(rng, 0, 1)
	dy := New(outC, spatial).RandNormal(rng, 0, 1)
	dyDense := New(m, 40).RandNormal(rng, 0, 1)
	products := func() []*Tensor {
		return []*Tensor{
			MatMulInto(New(m, 40), a, b),
			ConvMatMulInto(New(outC, spatial), w, img, g),
			ConvMatMulTransBInto(New(outC, colRows), dy, img, g),
			DenseForwardInto(New(m, 40), a, b),
			DenseInputGradInto(New(m, 64), dyDense, b),
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
	for i, name := range []string{"MatMulInto", "ConvMatMulInto", "ConvMatMulTransBInto", "DenseForwardInto", "DenseInputGradInto"} {
		if !AllClose(exact[i], fast1[i], 1e-10) {
			t.Fatalf("%s: fast mode drifted beyond tolerance from exact mode", name)
		}
		requireSameFloats(t, name+" fast workers=4 vs workers=1", fastN[i].Data, fast1[i].Data)
	}
}

// FuzzPackedGEMM drives the packed index math (panel layouts, ragged
// edge padding) and the dense products' row-indirect tables with fuzzed
// shapes and checks every orientation against the naive references bit
// for bit; FuzzConvPack does the same for the conv products.
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
		gemmInto(got, m, k, n, aSource{data: a, kind: aPlain}, b)
		requireBitEqual(t, "fuzz gemm", got, want, m, k, n)
		DenseForwardInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
		requireBitEqual(t, "fuzz DenseForwardInto", got, want, m, k, n)

		at := make([]float64, k*m)
		fillMixed(rng, at)
		naiveTransA(want, at, b, m, k, n)
		gemmInto(got, m, k, n, aSource{data: at, kind: aTransposed}, b)
		requireBitEqual(t, "fuzz gemm transA", got, want, m, k, n)

		bt := make([]float64, n*k)
		fillMixed(rng, bt)
		naiveTransB(want, a, bt, m, k, n)
		DenseInputGradInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(bt, n, k))
		requireBitEqual(t, "fuzz DenseInputGradInto", got, want, m, k, n)
	})
}
