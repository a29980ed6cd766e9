package tensor

import (
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
)

// The parallel kernels promise bit-identical results to the serial path
// for any worker count (see internal/parallel's determinism contract).
// These tests pin that promise down with exact float64 equality across
// 1, 2, and 8 workers.

var determinismWorkers = []int{1, 2, 8}

// atWorkers evaluates f under each worker count and returns the results.
func atWorkers(t *testing.T, f func() []float64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(determinismWorkers))
	for i, w := range determinismWorkers {
		parallel.SetWorkers(w)
		out[i] = f()
	}
	parallel.SetWorkers(0)
	return out
}

// mustBitIdentical fails unless every result equals the workers=1 result
// exactly (bitwise, via float64 ==; the data contains no NaNs).
func mustBitIdentical(t *testing.T, name string, results [][]float64) {
	t.Helper()
	base := results[0]
	for ri, r := range results[1:] {
		if len(r) != len(base) {
			t.Fatalf("%s: workers=%d result length %d, want %d",
				name, determinismWorkers[ri+1], len(r), len(base))
		}
		for i := range r {
			if r[i] != base[i] {
				t.Fatalf("%s: workers=%d differs from serial at element %d: %g vs %g",
					name, determinismWorkers[ri+1], i, r[i], base[i])
			}
		}
	}
}

func TestMatMulBitIdenticalAcrossWorkers(t *testing.T) {
	// Odd sizes exercise uneven chunk boundaries.
	for _, dims := range [][3]int{{1, 1, 1}, {7, 5, 3}, {64, 64, 64}, {129, 67, 251}} {
		m, k, n := dims[0], dims[1], dims[2]
		rng := rand.New(rand.NewSource(11))
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		mustBitIdentical(t, "MatMul", atWorkers(t, func() []float64 {
			return mm(a, b).Data
		}))
	}
}

// forkingRows returns a row count m, ragged against MR, at which an
// (m×k)@(k×n) product is at least four chunks of minChunkFLOPs, and
// fails the test unless the engine forks it once there are two workers
// — a worker-determinism test over a product that runs inline proves
// nothing, whatever the floor is moved to. The matrix entries partition
// MR-blocks of n against m outputs each (rowPlan), so n must span at
// least a few blocks.
func forkingRows(t *testing.T, k, n int) int {
	t.Helper()
	m := 4*minChunkFLOPs/(2*k*n) + gemmMR + 3
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(0)
	if parallel.Inline((n+gemmMR-1)/gemmMR, grainRows(2*k*m*gemmMR)) {
		t.Fatalf("%d×%d×%d (%d FLOPs) does not fork at a %d-FLOP floor", m, k, n, 2*m*k*n, minChunkFLOPs)
	}
	return m
}

func TestMatMulTransABitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := forkingRows(t, 130, 33)
	a := New(130, m).RandNormal(rng, 0, 1)
	b := New(130, 33).RandNormal(rng, 0, 1)
	mustBitIdentical(t, "MatMulTransA", atWorkers(t, func() []float64 {
		return MatMulTransAInto(New(m, 33), a, b).Data
	}))
}

// TestDenseProductsBitIdenticalAcrossWorkers runs both dense products at
// an evaluation-sized batch — 256 rows against a 256→64 layer — where
// the row-indirect plan partitions W's rows across the pool, and fails
// unless both fork once there are two workers.
func TestDenseProductsBitIdenticalAcrossWorkers(t *testing.T) {
	const batch, in, out = 256, 256, 64
	parallel.SetWorkers(2)
	for _, p := range []struct{ rows, k int }{{out, in}, {in, out}} {
		if parallel.Inline((p.rows+gemmMR-1)/gemmMR, grainRows(2*p.k*batch*gemmMR)) {
			t.Fatalf("dense product of %d W rows, k=%d, batch %d does not fork", p.rows, p.k, batch)
		}
	}
	parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(13))
	x := New(batch, in).RandNormal(rng, 0, 1)
	w := New(in, out).RandNormal(rng, 0, 1)
	dy := New(batch, out).RandNormal(rng, 0, 1)
	mustBitIdentical(t, "DenseForwardInto", atWorkers(t, func() []float64 {
		return DenseForwardInto(New(batch, out), x, w).Data
	}))
	mustBitIdentical(t, "DenseInputGradInto", atWorkers(t, func() []float64 {
		return DenseInputGradInto(New(batch, in), dy, w).Data
	}))
}

func convTestGeom() ConvGeom {
	return ConvGeom{
		InC: 5, InH: 17, InW: 13,
		KH: 3, KW: 3,
		StrideH: 2, StrideW: 1,
		PadH: 1, PadW: 2,
	}
}

func TestCol2ImBitIdenticalAcrossWorkers(t *testing.T) {
	g := convTestGeom()
	rng := rand.New(rand.NewSource(15))
	src := New(g.ColSize()).RandNormal(rng, 0, 1)
	mustBitIdentical(t, "Col2Im", atWorkers(t, func() []float64 {
		dst := make([]float64, g.ImageSize())
		Col2ImBatch(dst, src.Data, 1, g)
		return dst
	}))
}

func TestCol2ImBatchMatchesPerSampleSerial(t *testing.T) {
	g := convTestGeom()
	const n = 6
	rng := rand.New(rand.NewSource(17))
	src := New(n*g.ColSize()).RandNormal(rng, 0, 1)

	parallel.SetWorkers(1)
	want := make([]float64, n*g.ImageSize())
	for i := 0; i < n; i++ {
		Col2ImBatch(want[i*g.ImageSize():(i+1)*g.ImageSize()], src.Data[i*g.ColSize():(i+1)*g.ColSize()], 1, g)
	}
	results := atWorkers(t, func() []float64 {
		dst := make([]float64, n*g.ImageSize())
		Col2ImBatch(dst, src.Data, n, g)
		return dst
	})
	parallel.SetWorkers(0)
	mustBitIdentical(t, "Col2ImBatch", append([][]float64{want}, results...))
}
