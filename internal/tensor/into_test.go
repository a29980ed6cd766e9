package tensor

import (
	"math/rand"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/testutil"
)

// Tests for the destination-passing API: Into kernels must match their
// allocating twins (or, for the matmuls, the naive references) bit for bit, the workspace primitives must reuse
// storage, and the whole family must be allocation-free after warmup.

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(7, 5).RandNormal(rng, 0, 1)
	b := New(5, 9).RandNormal(rng, 0, 1)
	want := New(7, 9)
	naiveMatMul(want.Data, a.Data, b.Data, 7, 5, 9)
	if got := MatMulInto(New(7, 9), a, b); !AllClose(got, want, 0) {
		t.Fatal("MatMulInto != naive a@b")
	}
	at := New(5, 7).RandNormal(rng, 0, 1)
	naiveTransA(want.Data, at.Data, b.Data, 7, 5, 9)
	if got := testGM.MatMulTransAIntoOp("MatMulTransAInto", New(7, 9), at, b); !AllClose(got, want, 0) {
		t.Fatal("MatMulTransAInto != naive aᵀ@b")
	}
	naiveMatMul(want.Data, a.Data, b.Data, 7, 5, 9)
	if got := DenseForwardInto(New(7, 9), a, b); !AllClose(got, want, 0) {
		t.Fatal("DenseForwardInto != naive x@W")
	}
	bt := New(9, 5).RandNormal(rng, 0, 1)
	naiveTransB(want.Data, a.Data, bt.Data, 7, 5, 9)
	if got := testGM.DenseInputGradInto(New(7, 9), a, bt); !AllClose(got, want, 0) {
		t.Fatal("DenseInputGradInto != naive dy@Wᵀ")
	}

	x, sumsWant := New(4, 6).RandNormal(rng, 0, 1), New(6)
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			sumsWant.Data[c] += x.At(r, c)
		}
	}
	var sums Tensor
	if !AllClose(x.SumRowsInto(&sums), sumsWant, 0) {
		t.Fatal("SumRowsInto != naive row sums")
	}
}

func TestEnsureReusesStorage(t *testing.T) {
	var ws Tensor
	ws.Ensure(4, 8)
	if ws.Size() != 32 {
		t.Fatalf("Ensure size = %d", ws.Size())
	}
	base := &ws.Data[0]
	ws.Ensure(2, 8) // shrink: must reuse
	if &ws.Data[0] != base {
		t.Fatal("Ensure reallocated on shrink")
	}
	if d := ws.Dims(); d != 2 || ws.Dim(0) != 2 || ws.Dim(1) != 8 {
		t.Fatalf("Ensure shape wrong: %v", ws.Shape())
	}
	ws.Ensure(16, 8) // grow: must reallocate
	if ws.Size() != 128 {
		t.Fatalf("Ensure grow size = %d", ws.Size())
	}

	src := New(2, 3)
	ws.EnsureShapeOf(src)
	if !shapeEq(ws.Shape(), []int{2, 3}) {
		t.Fatalf("EnsureShapeOf shape = %v", ws.Shape())
	}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestViews(t *testing.T) {
	src := FromSlice([]float64{0, 1, 2, 3, 4, 5}, 2, 3)
	var v Tensor
	v.ViewOf(src, 3, 2)
	if v.At(2, 1) != 5 {
		t.Fatalf("ViewOf misreads: %v", v)
	}
	v.Data[0] = 42
	if src.Data[0] != 42 {
		t.Fatal("ViewOf must share storage")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched view size")
		}
	}()
	v.ViewOf(src, 4, 2)
}

func TestAppendShape(t *testing.T) {
	src := New(3, 4, 5)
	buf := make([]int, 0, 8)
	got := src.AppendShape(buf[:0])
	if !shapeEq(got, []int{3, 4, 5}) {
		t.Fatalf("AppendShape = %v", got)
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	var p Pool
	a := p.Get(4, 4)
	for i := range a.Data {
		a.Data[i] = 1 // dirty it
	}
	base := &a.Data[0]
	p.Put(a)
	b := p.Get(4, 4)
	if &b.Data[0] != base {
		t.Fatal("Pool did not reuse the buffer")
	}
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("Pool.Get returned a non-zeroed tensor")
		}
	}
	// A smaller request must also be servable from the same bucket class.
	p.Put(b)
	c := p.Get(9)
	if cap(c.Data) < 16 {
		t.Fatalf("bucket rounding lost capacity: %d", cap(c.Data))
	}
	// Mismatched class allocates fresh but still zero-filled.
	d := p.Get(100)
	if d.Size() != 100 {
		t.Fatalf("Get(100) size = %d", d.Size())
	}
}

func TestKernelsAllocFreeSerial(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	rng := rand.New(rand.NewSource(3))
	a := New(32, 48).RandNormal(rng, 0, 1)
	b := New(48, 24).RandNormal(rng, 0, 1)
	dst := New(32, 24)
	testutil.MaxAllocs(t, "MatMulInto", 0, func() { MatMulInto(dst, a, b) })
	at := New(48, 32).RandNormal(rng, 0, 1)
	testutil.MaxAllocs(t, "MatMulTransAInto", 0, func() { testGM.MatMulTransAIntoOp("MatMulTransAInto", dst, at, b) })
	testutil.MaxAllocs(t, "DenseForwardInto", 0, func() { DenseForwardInto(dst, a, b) })
	bt := New(24, 48).RandNormal(rng, 0, 1)
	testutil.MaxAllocs(t, "DenseInputGradInto", 0, func() { testGM.DenseInputGradInto(dst, a, bt) })

	g := ConvGeom{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := make([]float64, 2*g.ImageSize())

	// The fused conv kernels service their pack panels from packPool, so
	// they must also be allocation-free once the pool is warm.
	colRows, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	w := New(8, colRows).RandNormal(rng, 0, 1)
	img := src[:g.ImageSize()]
	convDst := New(8, spatial)
	testutil.MaxAllocs(t, "ConvMatMulInto", 0, func() { ConvMatMulInto(convDst, w, img, g) })
	dy := New(8, spatial).RandNormal(rng, 0, 1)
	dwDst := New(8, colRows)
	testutil.MaxAllocs(t, "ConvMatMulTransBInto", 0, func() { ConvMatMulTransBInto(dwDst, dy, img, g) })
	dys, dx := FromSlice(dy.Data, 1, 8, spatial), New(1, g.InC, g.InH, g.InW)
	testutil.MaxAllocs(t, "ConvInputGradBatchInto", 0, func() { testGM.ConvInputGradBatchInto(dx, w, dys, g) })
	x, dys2, db := FromSlice(src, 2, g.InC, g.InH, g.InW), New(2, 8, spatial).RandNormal(rng, 0, 1), New(8)
	testutil.MaxAllocs(t, "ConvWeightGradBatchInto", 0, func() { testGM.ConvWeightGradBatchInto(dwDst, db, dys2, x, g) })

	var ws Tensor
	testutil.MaxAllocs(t, "Ensure", 0, func() { ws.Ensure(32, 24) })
	var out Tensor
	testutil.MaxAllocs(t, "SumRowsInto", 0, func() { a.SumRowsInto(&out) })
}
