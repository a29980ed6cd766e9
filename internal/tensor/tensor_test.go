package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size() = %d, want 24", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
	if got := x.Shape(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Shape() = %v, want [2 3 4]", got)
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Size() != 1 {
		t.Fatalf("scalar Size() = %d, want 1", s.Size())
	}
	if s.Dims() != 0 {
		t.Fatalf("scalar Dims() = %d, want 0", s.Dims())
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer expectPanic(t, "negative dimension")
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", x)
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "size mismatch")
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestFullAndOnes(t *testing.T) {
	x := Full(2.5, 3)
	for _, v := range x.Data {
		if v != 2.5 {
			t.Fatalf("Full element = %v, want 2.5", v)
		}
	}
	o := Ones(2, 2)
	if o.Sum() != 4 {
		t.Fatalf("Ones(2,2).Sum() = %v, want 4", o.Sum())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Fatalf("At after Set = %v, want 7", x.At(1, 2))
	}
	if x.Data[5] != 7 {
		t.Fatalf("flat offset wrong: Data = %v", x.Data)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "out of range")
	New(2, 2).At(0, 2)
}

func TestAtWrongRankPanics(t *testing.T) {
	defer expectPanic(t, "wrong rank")
	New(2, 2).At(1)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestCopyFrom(t *testing.T) {
	x := New(2, 2)
	y := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x.CopyFrom(y)
	if !AllClose(x, y, 0) {
		t.Fatalf("CopyFrom mismatch: %v vs %v", x, y)
	}
}

func TestRowView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 99
	if x.At(1, 0) != 99 {
		t.Fatal("Row must be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := Add(a, b); !AllClose(got, FromSlice([]float64{11, 22, 33}, 3), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !AllClose(got, FromSlice([]float64{9, 18, 27}, 3), 0) {
		t.Fatalf("Sub = %v", got)
	}
	c := a.Clone().Scale(2)
	if !AllClose(c, FromSlice([]float64{2, 4, 6}, 3), 0) {
		t.Fatalf("Scale = %v", c)
	}
	d := a.Clone().AddScaled(0.5, b)
	if !AllClose(d, FromSlice([]float64{6, 12, 18}, 3), 0) {
		t.Fatalf("AddScaled = %v", d)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "size mismatch")
	New(2).AddInPlace(New(3))
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-1, 4, 2, -7}, 4)
	if x.Sum() != -2 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != -0.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 {
		t.Fatalf("Max = %v", x.Max())
	}
	if x.Min() != -7 {
		t.Fatalf("Min = %v", x.Min())
	}
	if got := x.L2Norm(); math.Abs(got-math.Sqrt(1+16+4+49)) > 1e-12 {
		t.Fatalf("L2Norm = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := New(0).Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float64{
		0.1, 0.9, 0.0,
		0.5, 0.5, 0.4, // tie -> lowest index
		-3, -1, -2,
	}, 3, 3)
	got := x.ArgMaxRows()
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgMaxRows = %v, want %v", got, want)
		}
	}
}

func TestSumRows(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := x.SumRowsInto(New(1))
	want := FromSlice([]float64{5, 7, 9}, 3)
	if !AllClose(got, want, 0) {
		t.Fatalf("SumRowsInto = %v, want %v", got, want)
	}
}

func TestApply(t *testing.T) {
	x := FromSlice([]float64{1, 4, 9}, 3)
	x.Apply(func(v float64) float64 { return -v })
	if x.Data[2] != -9 {
		t.Fatalf("Apply in place failed: %v", x)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := mm(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !AllClose(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4).RandNormal(rng, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if got := mm(a, id); !AllClose(got, a, 1e-12) {
		t.Fatal("A @ I != A")
	}
	if got := mm(id, a); !AllClose(got, a, 1e-12) {
		t.Fatal("I @ A != A")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer expectPanic(t, "dim mismatch")
	mm(New(2, 3), New(2, 3))
}

func TestMatMulInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := Full(999, 2, 2) // stale contents must be overwritten
	MatMulInto(dst, a, b)
	want := FromSlice([]float64{19, 22, 43, 50}, 2, 2)
	if !AllClose(dst, want, 1e-12) {
		t.Fatalf("MatMulInto = %v, want %v", dst, want)
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 3).RandNormal(rng, 0, 1)
	b := New(5, 4).RandNormal(rng, 0, 1)
	got := MatMulTransAInto(New(3, 4), a, b)
	want := mm(transposed(a), b)
	if !AllClose(got, want, 1e-10) {
		t.Fatal("MatMulTransA != Aᵀ@B")
	}
	c := New(6, 3).RandNormal(rng, 0, 1)
	d := New(4, 3).RandNormal(rng, 0, 1)
	got2 := DenseInputGradInto(New(6, 4), c, d)
	want2 := mm(c, transposed(d))
	if !AllClose(got2, want2, 1e-10) {
		t.Fatal("DenseInputGradInto != A@Bᵀ")
	}
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := transposed(x)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("transpose shape = %v", y.Shape())
	}
	if y.At(2, 0) != 3 || y.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", y)
	}
}

func TestAddRowVector(t *testing.T) {
	x := New(2, 3)
	v := FromSlice([]float64{1, 2, 3}, 3)
	x.AddRowVector(v)
	want := FromSlice([]float64{1, 2, 3, 1, 2, 3}, 2, 3)
	if !AllClose(x, want, 0) {
		t.Fatalf("AddRowVector = %v", x)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := New(100).RandNormal(rand.New(rand.NewSource(42)), 0, 1)
	b := New(100).RandNormal(rand.New(rand.NewSource(42)), 0, 1)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed must produce identical fills")
	}
}

func TestHeInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(100000).HeInit(rng, 50)
	wantStd := math.Sqrt(2.0 / 50.0)
	var s, ss float64
	for _, v := range x.Data {
		s += v
		ss += v * v
	}
	n := float64(x.Size())
	mean := s / n
	std := math.Sqrt(ss/n - mean*mean)
	if math.Abs(mean) > 0.01 || math.Abs(std-wantStd)/wantStd > 0.05 {
		t.Fatalf("HeInit mean=%v std=%v, want mean≈0 std≈%v", mean, std, wantStd)
	}
}

func TestStringPreview(t *testing.T) {
	s := New(100).String()
	if s == "" {
		t.Fatal("String() empty")
	}
}

// --- property-based tests -------------------------------------------------

// prop: MatMul distributes over addition: A@(B+C) == A@B + A@C.
func TestPropMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		c := New(k, n).RandNormal(rng, 0, 1)
		lhs := mm(a, Add(b, c))
		rhs := Add(mm(a, b), mm(a, c))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// prop: transpose is an involution.
func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := New(r, c).RandNormal(rng, 0, 1)
		return AllClose(transposed(transposed(a)), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// prop: (A@B)ᵀ == Bᵀ@Aᵀ.
func TestPropMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		lhs := transposed(mm(a, b))
		rhs := mm(transposed(b), transposed(a))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// prop: Dot(a,a) == L2Norm(a)².
func TestPropDotNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := New(n).RandNormal(rng, 0, 2)
		d := Dot(a, a)
		l := a.L2Norm()
		return math.Abs(d-l*l) <= 1e-9*(1+d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: with a 1x1 kernel, stride 1 and no padding the column matrix is
// the image itself, and the input gradient through identity weights
// scatters it back exactly (perfect reconstruction).
func TestPropIm2ColIdentityKernel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 1+rng.Intn(3), 1+rng.Intn(6), 1+rng.Intn(6)
		g := ConvGeom{InC: c, InH: h, InW: w, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
		src := New(c*h*w).RandNormal(rng, 0, 1)
		col := make([]float64, c*g.OutH()*g.OutW())
		im2colRef(col, src.Data, g)
		eye := New(c, c)
		for i := 0; i < c; i++ {
			eye.Data[i*c+i] = 1
		}
		back := ConvInputGradBatchInto(New(1, c, h, w), eye, FromSlice(col, 1, c, h*w), g)
		return AllClose(FromSlice(back.Data, c*h*w), src, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad -> 2x2 output.
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	src := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float64, 4*4)
	im2colRef(col, src, g)
	// Rows are kernel positions (kh,kw), columns are output positions.
	want := []float64{
		1, 2, 4, 5, // (0,0)
		2, 3, 5, 6, // (0,1)
		4, 5, 7, 8, // (1,0)
		5, 6, 8, 9, // (1,1)
	}
	if !AllClose(FromSlice(col, 16), FromSlice(want, 16), 0) {
		t.Fatalf("Im2Col = %v, want %v", col, want)
	}
}

func TestIm2ColPadding(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 2 || g.OutW() != 2 {
		t.Fatalf("out dims = %dx%d, want 2x2", g.OutH(), g.OutW())
	}
	src := []float64{1, 2, 3, 4}
	col := make([]float64, 9*4)
	im2colRef(col, src, g)
	// Kernel position (0,0) looks up-left of each output; with pad 1 the
	// first column sees the zero padding everywhere except bottom-right.
	row0 := col[0:4]
	want0 := []float64{0, 0, 0, 1}
	if !AllClose(FromSlice(row0, 4), FromSlice(want0, 4), 0) {
		t.Fatalf("padded Im2Col row0 = %v, want %v", row0, want0)
	}
}

func TestConvGeomValidate(t *testing.T) {
	cases := []struct {
		name string
		g    ConvGeom
		ok   bool
	}{
		{"valid", ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, true},
		{"zero channels", ConvGeom{InC: 0, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, false},
		{"zero stride", ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 0, StrideW: 1}, false},
		{"negative pad", ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1}, false},
		{"kernel too big", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1}, false},
		{"kernel too big by less than the stride", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 4, StrideW: 4}, false},
		{"zero kernel", ConvGeom{InC: 1, InH: 2, InW: 2, KH: 0, KW: 1, StrideH: 1, StrideW: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
