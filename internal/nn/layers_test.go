package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
)

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 8, 3)
	y := d.Forward(tensor.New(5, 8), false)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("output shape = %v", y.Shape())
	}
	out := d.OutShape([]int{8})
	if len(out) != 1 || out[0] != 3 {
		t.Fatalf("OutShape = %v", out)
	}
}

func TestDenseBadInputPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 8, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	d.Forward(tensor.New(5, 7), false)
}

func TestDenseBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Backward before Forward")
		}
	}()
	d.Backward(tensor.New(1, 2))
}

func TestDenseKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 2)
	// Overwrite the random init with known weights.
	copy(d.w.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.b.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	// y = [1+3+10, 2+4+20] = [14, 26]
	want := tensor.FromSlice([]float64{14, 26}, 1, 2)
	if !tensor.AllClose(y, want, 1e-12) {
		t.Fatalf("y = %v, want %v", y, want)
	}
}

func TestConv2DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, 3, 8, 3, 1, 1) // same-padding
	y := c.Forward(tensor.New(2, 3, 16, 16), false)
	wantShape := []int{2, 8, 16, 16}
	for i, d := range wantShape {
		if y.Dim(i) != d {
			t.Fatalf("conv output shape = %v, want %v", y.Shape(), wantShape)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, 1, 1, 2, 1, 0)
	copy(c.w.Data, []float64{1, 0, 0, 1}) // identity-ish: top-left + bottom-right
	c.b.Data[0] = 0.5
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	y := c.Forward(x, false)
	// 1*1 + 4*1 + 0.5 = 5.5
	if y.Size() != 1 || math.Abs(y.Data[0]-5.5) > 1e-12 {
		t.Fatalf("conv value = %v, want 5.5", y.Data)
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 0,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := tensor.FromSlice([]float64{4, 8, 9, 4}, 1, 1, 2, 2)
	if !tensor.AllClose(y, want, 0) {
		t.Fatalf("maxpool = %v, want %v", y, want)
	}
}

func TestMaxPoolTruncatesOddDims(t *testing.T) {
	p := NewMaxPool2D(2)
	y := p.Forward(tensor.New(1, 1, 5, 5), false)
	if y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("odd-dim pooling shape = %v, want trailing row/col dropped", y.Shape())
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2}, 3)
	y := r.Forward(x, false)
	want := tensor.FromSlice([]float64{0, 0, 2}, 3)
	if !tensor.AllClose(y, want, 0) {
		t.Fatalf("relu = %v", y)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout(rng, 0.5)
	x := tensor.New(10).RandNormal(rng, 0, 1)
	y := d.Forward(x, false)
	if !tensor.AllClose(x, y, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutTrainStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(rng, 0.3)
	x := tensor.Ones(100000)
	y := d.Forward(x, true)
	// Inverted dropout keeps E[y] == E[x].
	if m := y.Mean(); math.Abs(m-1) > 0.02 {
		t.Fatalf("dropout mean = %v, want ≈1", m)
	}
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(y.Size())
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("dropout zero fraction = %v, want ≈0.3", frac)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := tensor.Ones(64)
	y := d.Forward(x, true)
	dy := tensor.Ones(64)
	dx := d.Backward(dy)
	// Gradient must flow exactly where the forward pass kept the value.
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatalf("mask mismatch at %d: y=%v dx=%v", i, y.Data[i], dx.Data[i])
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(2)
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(64, 2)
	for i := 0; i < 64; i++ {
		x.Set(5+2*rng.NormFloat64(), i, 0)
		x.Set(-3+0.5*rng.NormFloat64(), i, 1)
	}
	y := bn.Forward(x, true)
	for f := 0; f < 2; f++ {
		var s, ss float64
		for i := 0; i < 64; i++ {
			v := y.At(i, f)
			s += v
			ss += v * v
		}
		mean := s / 64
		variance := ss/64 - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("feature %d: mean=%v var=%v, want 0/1", f, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm(1)
	rng := rand.New(rand.NewSource(8))
	// Train on shifted data for a while so running stats settle.
	for i := 0; i < 200; i++ {
		x := tensor.New(32, 1).RandNormal(rng, 10, 2)
		bn.Forward(x, true)
	}
	// In eval mode, feeding the training distribution should give ≈N(0,1).
	x := tensor.New(1024, 1).RandNormal(rng, 10, 2)
	y := bn.Forward(x, false)
	if m := y.Mean(); math.Abs(m) > 0.2 {
		t.Fatalf("eval mean = %v, want ≈0", m)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 4)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	dx := f.Backward(tensor.New(2, 48))
	if dx.Dims() != 4 || dx.Dim(1) != 3 {
		t.Fatalf("flatten backward shape = %v", dx.Shape())
	}
}

func TestSequentialOutShapeAndFLOPs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(
		NewConv2D(rng, 3, 8, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(rng, 8*16*16, 43),
	)
	out := net.OutShape([]int{3, 32, 32})
	if len(out) != 1 || out[0] != 43 {
		t.Fatalf("OutShape = %v, want [43]", out)
	}
	if f := net.FwdFLOPs([]int{3, 32, 32}); f <= 0 {
		t.Fatalf("FwdFLOPs = %d, want positive", f)
	}
}

func TestSequentialShapeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewSequential(
		NewConv2D(rng, 3, 8, 3, 1, 1),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(rng, 8*16*16, 10),
	)
	in := []int{3, 32, 32}
	cases := []struct {
		k    int
		want []int
	}{
		{0, []int{3, 32, 32}},
		{1, []int{8, 32, 32}},
		{2, []int{8, 16, 16}},
		{3, []int{8 * 16 * 16}},
		{4, []int{10}},
	}
	for _, tc := range cases {
		got := NewSequential(net.Layers[:tc.k]...).OutShape(in)
		if !shapeEq(got, tc.want) {
			t.Fatalf("shape after %d layers = %v, want %v", tc.k, got, tc.want)
		}
	}
}

// TestBackwardWritesParamGrads holds the Layer contract that Backward
// writes parameter gradients rather than adding onto them: twin networks
// take one step each, one with every Grads() tensor first filled with
// NaN and 1e300, and every gradient — and, through Backward, the input
// gradient — must come out with the same bits. It covers Conv2D as the
// first layer (BackwardParams) and as a middle one, Dense, BatchNorm
// over both layouts, and a parameter-free first layer.
func TestBackwardWritesParamGrads(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *Sequential
		in    []int
	}{
		{"conv first and middle", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D(rng, 3, 8, 3, 1, 1), NewReLU(),
				NewConv2D(rng, 8, 4, 3, 2, 0), NewFlatten(), NewDense(rng, 4*3*3, 5))
		}, []int{5, 3, 8, 8}},
		{"dense", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewDense(rng, 20, 16), NewReLU(), NewDense(rng, 16, 5))
		}, []int{6, 20}},
		{"batchnorm", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewConv2D(rng, 2, 4, 3, 1, 1), NewBatchNorm(4), NewReLU(),
				NewFlatten(), NewDense(rng, 4*5*5, 6), NewBatchNorm(6), NewDense(rng, 6, 3))
		}, []int{4, 2, 5, 5}},
		{"parameter-free first", func(rng *rand.Rand) *Sequential {
			return NewSequential(NewFlatten(), NewDense(rng, 2*3*3, 4))
		}, []int{4, 2, 3, 3}},
	}
	for _, tc := range cases {
		for _, paramsOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/paramsOnly=%v", tc.name, paramsOnly), func(t *testing.T) {
				dirty := tc.build(rand.New(rand.NewSource(51)))
				fresh := tc.build(rand.New(rand.NewSource(51)))
				rng := rand.New(rand.NewSource(52))
				x := tensor.New(tc.in...).RandNormal(rng, 0, 1)
				dy := fresh.Forward(x, true).Clone().RandNormal(rng, 0, 1)
				dirty.Forward(x, true)
				for _, g := range dirty.Grads() {
					for i := range g.Data {
						g.Data[i] = []float64{math.NaN(), 1e300}[i%2]
					}
				}
				if paramsOnly {
					dirty.BackwardParams(dy)
					fresh.BackwardParams(dy)
				} else {
					requireSameBits(t, "input gradient", dirty.Backward(dy).Data, fresh.Backward(dy).Data)
				}
				gd, gf := dirty.Grads(), fresh.Grads()
				for i := range gf {
					requireSameBits(t, fmt.Sprintf("gradient %d", i), gd[i].Data, gf[i].Data)
				}
			})
		}
	}
}

func TestDecayMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential(NewDense(rng, 3, 3), NewBatchNorm(3))
	mask := net.DecayMask()
	want := []bool{true, true, false, false, false, false} // dense W,b then BN gamma,beta,runMean,runVar
	if len(mask) != len(want) {
		t.Fatalf("mask length = %d, want %d", len(mask), len(want))
	}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v, want %v", mask, want)
		}
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewSequential(NewDense(rng, 10, 5)) // 50 weights + 5 biases
	if n := net.ParamCount(); n != 55 {
		t.Fatalf("ParamCount = %d, want 55", n)
	}
}

func TestConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dense", func() { NewDense(rng, 0, 3) })
	mustPanic("conv", func() { NewConv2D(rng, 1, 1, 0, 1, 0) })
	mustPanic("pool", func() { NewMaxPool2D(0) })
	mustPanic("dropout", func() { NewDropout(rng, 1.0) })
	mustPanic("batchnorm", func() { NewBatchNorm(0) })
}
