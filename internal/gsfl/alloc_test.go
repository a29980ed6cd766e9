package gsfl

import (
	"context"
	"testing"

	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/testutil"
)

// TestRoundSteadyStateAllocs guards the allocation-free training hot
// path end to end: after warmup, a full GSFL round — model distribution,
// split training in every group, latency pricing, FedAvg aggregation —
// must stay within a small bookkeeping budget. The pre-workspace
// implementation spent tens of thousands of allocations per round; the
// budget below covers round-scoped bookkeeping
// (ledgers, per-position slices, bandwidth allocations), not per-element
// tensor traffic, so a regression that reintroduces per-step buffer
// allocation trips it immediately. Measured 264 allocs/round after the
// packed-GEMM/implicit-conv rewrite (PR 8, down from 428 at PR 3); the
// limit sits ~10% above the measurement so it ratchets down with the
// code.
func TestRoundSteadyStateAllocs(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })

	env := schemestest.NewEnv(7, 6, 48)
	tr, err := New(env, schemes.FactoryOpts{Groups: 2, Strategy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	round := func() {
		if _, err := tr.Round(ctx); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm up workspaces across every group
	testutil.MaxAllocs(t, "gsfl round", 290, round)
}
