package quantize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gsfl/internal/tensor"
)

func TestRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1000).RandNormal(rng, 0, 3)
	q := Quantize(x)
	back := q.Dequantize()
	bound := q.Scale/2 + 1e-12
	for i := range x.Data {
		if err := math.Abs(x.Data[i] - back.Data[i]); err > bound {
			t.Fatalf("element %d error %v exceeds bound %v", i, err, bound)
		}
	}
}

func TestConstantTensorExact(t *testing.T) {
	x := tensor.Full(3.14, 64)
	back := RoundTrip(x)
	if !tensor.AllClose(x, back, 0) {
		t.Fatal("constant tensor must round-trip exactly")
	}
}

func TestEndpointsExact(t *testing.T) {
	// Min and max always map to codes 0 and 255 and decode exactly.
	x := tensor.FromSlice([]float64{-5, 0.3, 7}, 3)
	back := RoundTrip(x)
	if back.Data[0] != -5 || math.Abs(back.Data[2]-7) > 1e-12 {
		t.Fatalf("endpoints changed: %v", back.Data)
	}
}

func TestEmptyTensor(t *testing.T) {
	x := tensor.New(0)
	q := Quantize(x)
	back := q.Dequantize()
	if back.Size() != 0 {
		t.Fatalf("empty round trip size %d", back.Size())
	}
}

func TestWireBytes(t *testing.T) {
	x := tensor.New(100)
	q := Quantize(x)
	if got := q.WireBytes(); got != 100+headerBytes {
		t.Fatalf("WireBytes = %d, want %d", got, 100+headerBytes)
	}
}

func TestNonFinitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN input")
		}
	}()
	Quantize(tensor.FromSlice([]float64{math.NaN()}, 1))
}

func TestShapePreserved(t *testing.T) {
	x := tensor.New(2, 3, 4).RandNormal(rand.New(rand.NewSource(2)), 0, 1)
	back := RoundTrip(x)
	if back.Dims() != 3 || back.Dim(2) != 4 {
		t.Fatalf("shape lost: %v", back.Shape())
	}
}

// prop: round trip never increases the tensor's range and error stays
// within scale/2 for random tensors of random shapes.
func TestPropRoundTripBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := tensor.New(n).RandNormal(rng, rng.NormFloat64()*5, 0.1+rng.Float64()*4)
		q := Quantize(x)
		back := q.Dequantize()
		bound := q.Scale/2 + 1e-9
		for i := range x.Data {
			if math.Abs(x.Data[i]-back.Data[i]) > bound {
				return false
			}
		}
		return back.Min() >= x.Min()-bound && back.Max() <= x.Max()+bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: quantization is idempotent — re-quantizing a dequantized tensor
// reproduces it exactly (codes hit the same grid).
func TestPropIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(1+rng.Intn(64)).RandNormal(rng, 0, 2)
		once := RoundTrip(x)
		twice := RoundTrip(once)
		return tensor.AllClose(once, twice, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
