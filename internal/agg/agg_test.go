package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gsfl/internal/model"
	"gsfl/internal/tensor"
)

func snapOf(vals ...float64) model.Snapshot {
	return model.Snapshot{Tensors: []*tensor.Tensor{tensor.FromSlice(vals, len(vals))}}
}

func TestFedAvgUniform(t *testing.T) {
	got := fedAvg([]model.Snapshot{snapOf(1, 2), snapOf(3, 4)}, nil)
	want := snapOf(2, 3)
	if got.L2Distance(want) > 1e-12 {
		t.Fatalf("uniform FedAvg = %v", got.Tensors[0])
	}
}

func TestFedAvgWeighted(t *testing.T) {
	got := fedAvg([]model.Snapshot{snapOf(0), snapOf(10)}, []float64{1, 3})
	if math.Abs(got.Tensors[0].Data[0]-7.5) > 1e-12 {
		t.Fatalf("weighted FedAvg = %v, want 7.5", got.Tensors[0].Data[0])
	}
}

func TestFedAvgSingleIsIdentity(t *testing.T) {
	s := snapOf(1.5, -2.5, 3)
	got := fedAvg([]model.Snapshot{s}, []float64{7})
	if got.L2Distance(s) > 1e-12 {
		t.Fatal("FedAvg of one snapshot must be that snapshot")
	}
}

func TestFedAvgZeroWeightIgnored(t *testing.T) {
	got := fedAvg([]model.Snapshot{snapOf(5), snapOf(1000)}, []float64{1, 0})
	if math.Abs(got.Tensors[0].Data[0]-5) > 1e-12 {
		t.Fatalf("zero-weight snapshot leaked into average: %v", got.Tensors[0].Data[0])
	}
}

func TestFedAvgScaleInvariantWeights(t *testing.T) {
	snaps := []model.Snapshot{snapOf(1, 2), snapOf(5, 6), snapOf(-1, 0)}
	a := fedAvg(snaps, []float64{1, 2, 3})
	b := fedAvg(snaps, []float64{10, 20, 30})
	if a.L2Distance(b) > 1e-12 {
		t.Fatal("FedAvg must be invariant to weight scaling")
	}
}

func TestFedAvgPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"empty", func() { fedAvg(nil, nil) }},
		{"weight count", func() { fedAvg([]model.Snapshot{snapOf(1)}, []float64{1, 2}) }},
		{"negative weight", func() { fedAvg([]model.Snapshot{snapOf(1)}, []float64{-1}) }},
		{"all zero weights", func() { fedAvg([]model.Snapshot{snapOf(1)}, []float64{0}) }},
		{"structure mismatch", func() { fedAvg([]model.Snapshot{snapOf(1), snapOf(1, 2)}, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

// prop: the average lies inside the convex hull — its coordinates are
// bounded by the min and max of the inputs.
func TestPropFedAvgConvexity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		dim := 1 + rng.Intn(6)
		snaps := make([]model.Snapshot, n)
		weights := make([]float64, n)
		for i := range snaps {
			vals := make([]float64, dim)
			for j := range vals {
				vals[j] = rng.NormFloat64() * 10
			}
			snaps[i] = snapOf(vals...)
			weights[i] = rng.Float64() + 0.01
		}
		avg := fedAvg(snaps, weights)
		for j := 0; j < dim; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range snaps {
				v := snaps[i].Tensors[0].Data[j]
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			v := avg.Tensors[0].Data[j]
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: FedAvg of identical snapshots is that snapshot (idempotence).
func TestPropFedAvgIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(8)
		vals := make([]float64, dim)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		s := snapOf(vals...)
		n := 1 + rng.Intn(5)
		snaps := make([]model.Snapshot, n)
		for i := range snaps {
			snaps[i] = s.Clone()
		}
		return fedAvg(snaps, nil).L2Distance(s) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
