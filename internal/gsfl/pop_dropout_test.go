package gsfl

import (
	"testing"

	"gsfl/env"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
)

// recordingCohort remembers the bindings of the latest round.
type recordingCohort struct {
	schemes.Cohort
	binds []schemes.SlotBinding
}

func (c *recordingCohort) BeginRound(round int) ([]schemes.SlotBinding, error) {
	binds, err := c.Cohort.BeginRound(round)
	c.binds = append(c.binds[:0], binds...)
	return binds, err
}

// TestPopulationDropoutWeighsMountedShards: under a population the slot
// index says nothing about which shard is mounted, so the FedAvg weight
// of a group thinned by dropout must be the sample count of the shards
// its surviving slots actually trained on — not of env.Train[slot].
func TestPopulationDropoutWeighsMountedShards(t *testing.T) {
	spec := env.TestSpec()
	spec.Population = 4 * spec.Clients
	spec.SampleFraction = 0.25
	spec.AvailTrace = "onoff"
	spec.Alpha = 0.1 // Dirichlet-skewed: shard sizes differ widely
	spec.DropoutProb = 0.3
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cohort := &recordingCohort{Cohort: world.Pop}
	world.Pop = cohort
	tr, err := New(world, schemes.FactoryOpts{Groups: 2, Strategy: "round-robin", DropoutProb: spec.DropoutProb})
	if err != nil {
		t.Fatal(err)
	}
	remounted, thinned := false, false
	for round := 1; round <= 12; round++ {
		schemestest.MustRound(t, tr)
		// Replay the round's dropout draws over the regrouped cohort.
		rng := world.Rng("dropout", round)
		var want []float64
		for _, members := range tr.groups {
			w, live := 0.0, false
			for _, ci := range members {
				if rng.Float64() < spec.DropoutProb {
					thinned = true
					continue
				}
				shard := cohort.binds[ci].Shard
				if world.Train[shard].Len() != world.Train[ci].Len() {
					remounted = true
				}
				w += float64(world.Train[shard].Len())
				live = true
			}
			if live {
				want = append(want, w)
			}
		}
		if len(want) == 0 {
			continue // everyone dropped: no aggregation this round
		}
		if len(tr.aggW) != len(want) {
			t.Fatalf("round %d: %d aggregation weights, want %d", round, len(tr.aggW), len(want))
		}
		for g := range want {
			if tr.aggW[g] != want[g] {
				t.Fatalf("round %d: live group %d aggregated with weight %v, mounted shards hold %v samples",
					round, g, tr.aggW[g], want[g])
			}
		}
	}
	if !remounted || !thinned {
		t.Fatalf("fixture too tame (remounted=%v thinned=%v): no round separated slot sizes from shard sizes", remounted, thinned)
	}
}
