package agg

import (
	"math/rand"
	"testing"

	"gsfl/internal/model"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// fedAvg is FedAvgInto into a fresh destination.
func fedAvg(snaps []model.Snapshot, weights []float64) model.Snapshot {
	var out model.Snapshot
	FedAvgInto(&out, snaps, weights)
	return out
}

func randSnaps(rng *rand.Rand, k int) []model.Snapshot {
	out := make([]model.Snapshot, k)
	for i := range out {
		out[i] = model.Snapshot{Tensors: []*tensor.Tensor{
			tensor.New(4, 3).RandNormal(rng, 0, 1),
			tensor.New(3).RandNormal(rng, 0, 1),
		}}
	}
	return out
}

// TestFedAvgIntoMatchesFedAvg pins the reusable-destination aggregation
// to one into a fresh destination bit for bit, including when the
// destination is reused across calls with different weights.
func TestFedAvgIntoMatchesFedAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	snaps := randSnaps(rng, 3)
	var dst model.Snapshot
	for trial := 0; trial < 4; trial++ {
		weights := []float64{rng.Float64() + 0.1, rng.Float64() + 0.1, rng.Float64() + 0.1}
		want := fedAvg(snaps, weights)
		FedAvgInto(&dst, snaps, weights)
		if d := want.L2Distance(dst); d != 0 {
			t.Fatalf("trial %d: FedAvgInto into a reused destination differs from a fresh one by %v", trial, d)
		}
	}
}

func TestFedAvgIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	snaps := randSnaps(rng, 4)
	weights := []float64{1, 2, 3, 4}
	var dst model.Snapshot
	testutil.MaxAllocs(t, "FedAvgInto", 0, func() { FedAvgInto(&dst, snaps, weights) })
}

func TestFedAvgIntoValidatesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	snaps := randSnaps(rng, 2)
	bad := model.Snapshot{Tensors: []*tensor.Tensor{tensor.New(1)}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for structurally different destination")
		}
	}()
	FedAvgInto(&bad, snaps, nil)
}
