package gsfl

import (
	"context"
	"testing"

	"gsfl/env"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/testutil"
)

// TestRoundSteadyStateAllocs guards the allocation-free training hot
// path end to end: after warmup, a full GSFL round — model distribution,
// split training in every group, latency pricing, FedAvg aggregation —
// must stay within a small bookkeeping budget that grows with the group
// count, not with clients × turns. The budgets cover round-scoped
// bookkeeping (the bandwidth allocations of each position, the
// fork-join, the round's folded ledger), not per-element tensor traffic,
// so a regression that reintroduces per-step buffer allocation, or
// pricing that walks the layers' shapes per turn, trips them
// immediately.
//
// Measured on linux/amd64: 12 allocs/round at the test shape and 16 at
// the paper's shape (N=30, M=6, gtsrb-cnn at 16 px) on one worker,
// 258–259 at the paper's shape on two, where each kernel call inside a
// group task builds its fork-join closure. Round-scoped client lists
// made fresh each round made them 15, 19 and 262; pricing into a ledger
// per group beside the chains 18, 26 and 269; before one task per group
// and cached per-sample costs they were 264, 2,902 and 3,169. Each limit
// sits ~10% above its measurement so it ratchets down with the code.
func TestRoundSteadyStateAllocs(t *testing.T) {
	t.Cleanup(func() { parallel.SetWorkers(0) })
	for _, c := range []struct {
		name    string
		paper   bool
		workers int
		limit   float64
	}{
		{"test shape", false, 1, 13},
		{"paper shape", true, 1, 18},
		{"paper shape, two workers", true, 2, 284},
	} {
		t.Run(c.name, func(t *testing.T) {
			world, groups := schemestest.NewEnv(7, 6, 48), 2
			if c.paper {
				if testutil.RaceEnabled {
					// MaxAllocs asserts nothing under -race, and the test
					// shape already runs the buffer-reuse paths there.
					t.Skip("paper-shape allocation budgets are not asserted under -race")
				}
				spec := env.PaperSpec()
				spec.ImageSize = 16
				var err error
				if world, err = env.Build(spec); err != nil {
					t.Fatal(err)
				}
				groups = spec.Groups
			}
			parallel.SetWorkers(c.workers)
			tr, err := New(world, schemes.FactoryOpts{Groups: groups, Strategy: "round-robin"})
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
			testutil.MaxAllocs(t, "gsfl round", c.limit, round)
		})
	}
}
