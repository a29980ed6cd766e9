package model

import (
	"math/rand"
	"testing"

	"gsfl/internal/nn"
	"gsfl/internal/testutil"
)

func testNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(nn.NewDense(rng, 6, 5), nn.NewReLU(), nn.NewDense(rng, 5, 3))
}

// TestCaptureFromMatchesTakeSnapshot pins the in-place re-capture to the
// allocating snapshot, including after the source parameters change.
func TestCaptureFromMatchesTakeSnapshot(t *testing.T) {
	net := testNet(1)
	var sn Snapshot
	sn.CaptureFrom(net)
	if d := sn.L2Distance(TakeSnapshot(net)); d != 0 {
		t.Fatalf("initial capture differs by %v", d)
	}
	// Mutate the model, re-capture in place, compare again.
	for _, p := range net.Params() {
		p.Scale(1.5)
	}
	sn.CaptureFrom(net)
	if d := sn.L2Distance(TakeSnapshot(net)); d != 0 {
		t.Fatalf("re-capture differs by %v", d)
	}
}

func TestCaptureFromAllocFree(t *testing.T) {
	net := testNet(2)
	var sn Snapshot
	testutil.MaxAllocs(t, "Snapshot.CaptureFrom", 0, func() { sn.CaptureFrom(net) })
}
