package gsfl

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/testutil"
)

// cancellingDataset counts Sample calls across every client's shard
// and, once armed, cancels the round's context on its k-th call.
type cancellingDataset struct {
	data.Dataset
	calls  *atomic.Int64
	armAt  *atomic.Int64 // 0 = disarmed
	cancel context.CancelFunc
}

func (d cancellingDataset) Sample(i int) ([]float64, int) {
	if n := d.calls.Add(1); n == d.armAt.Load() {
		d.cancel()
	}
	return d.Dataset.Sample(i)
}

// TestRoundCancelledInsideATurnChain: a context cancelled while a group
// task is mid-chain stops every group at its next client turn. Round
// returns context.Canceled, draws fewer samples than a full round, and
// leaves no fork-join goroutine behind.
func TestRoundCancelledInsideATurnChain(t *testing.T) {
	parallel.SetWorkers(2)
	t.Cleanup(func() { parallel.SetWorkers(0) })

	var calls, armAt atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	world := schemestest.NewEnv(9, 8, 40)
	for ci, ds := range world.Train {
		world.Train[ci] = cancellingDataset{Dataset: ds, calls: &calls, armAt: &armAt, cancel: cancel}
	}
	tr, err := New(world, schemes.FactoryOpts{Groups: 4, Strategy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	schemestest.MustRound(t, tr)
	full := calls.Load()

	calls.Store(0)
	armAt.Store(full / 4) // inside the first turns
	if _, err := tr.Round(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round returned %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= full {
		t.Fatalf("cancelled round drew %d samples, a full round draws %d: the turn chains did not stop", got, full)
	}
	testutil.ExpectNoGoroutines(t, "gsfl/internal/parallel.For")
}
