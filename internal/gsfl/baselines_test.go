package gsfl

import (
	"testing"

	"gsfl/env"
	"gsfl/internal/metrics"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/simnet"
)

// The split baselines are registrations of this package's engine; these
// are the behavioural tests their own packages carried, driven through
// the registry so they exercise exactly what "sl" and "sfl" resolve to.

// baselines lists what differs between the two rows of each table test.
var baselines = []struct {
	scheme string
	// learnRounds/evalEvery size the learns-blobs run.
	learnRounds, evalEvery int
	// aggregates: SplitFed pays FedAvg time every round, vanilla SL never.
	aggregates bool
	// scalesOK judges the 4-client vs 8-client round latency.
	scalesOK func(small, large float64) bool
	scaling  string
}{
	{"sl", 10, 2, false,
		func(small, large float64) bool { return large >= 1.5*small },
		"sequential training: doubling the clients should roughly double the round"},
	{"sfl", 15, 3, true,
		func(small, large float64) bool { return large < 1.9*small },
		"all clients train at once: latency must scale sublinearly in the fleet size"},
}

func newBaseline(t *testing.T, scheme string, seed int64, n int) schemes.Trainer {
	t.Helper()
	tr, err := schemes.NewByName(scheme, schemestest.NewEnv(seed, n, 40), schemes.FactoryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBaselinesLearnBlobs(t *testing.T) {
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			curve := schemestest.RunCurve(t, newBaseline(t, b.scheme, 1, 6), b.learnRounds, b.evalEvery)
			if !curve.IsFinite() {
				t.Fatal("training diverged")
			}
			if curve.Scheme != b.scheme {
				t.Fatalf("curve labelled %q", curve.Scheme)
			}
			if acc := curve.FinalAccuracy(); acc < 0.7 {
				t.Fatalf("final accuracy %v; %s failed to learn", acc, b.scheme)
			}
		})
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			c1 := schemestest.RunCurve(t, newBaseline(t, b.scheme, 3, 5), 4, 1)
			c2 := schemestest.RunCurve(t, newBaseline(t, b.scheme, 3, 5), 4, 1)
			for i := range c1.Points {
				if c1.Points[i] != c2.Points[i] {
					t.Fatalf("point %d differs: %+v vs %+v", i, c1.Points[i], c2.Points[i])
				}
			}
		})
	}
}

func TestBaselinesRoundComponents(t *testing.T) {
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			led := schemestest.MustRound(t, newBaseline(t, b.scheme, 4, 4))
			for _, c := range []simnet.Component{
				simnet.ClientCompute, simnet.Uplink, simnet.ServerCompute,
				simnet.Downlink, simnet.Relay,
			} {
				if led.Get(c) <= 0 {
					t.Fatalf("component %v is zero", c)
				}
			}
			if got := led.Get(simnet.Aggregation) > 0; got != b.aggregates {
				t.Fatalf("aggregation time %v, want paid=%v", led.Get(simnet.Aggregation), b.aggregates)
			}
		})
	}
}

func TestBaselinesLatencyScalesWithClients(t *testing.T) {
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			small := schemestest.MustRound(t, newBaseline(t, b.scheme, 5, 4)).Total()
			large := schemestest.MustRound(t, newBaseline(t, b.scheme, 5, 8)).Total()
			if !b.scalesOK(small, large) {
				t.Fatalf("%s: 4 clients %v, 8 clients %v", b.scaling, small, large)
			}
		})
	}
}

func TestBaselinesInvalidEnv(t *testing.T) {
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			noTest := schemestest.NewEnv(1, 4, 30)
			noTest.Test = nil
			badLR := schemestest.NewEnv(1, 4, 30)
			badLR.Hyper.LR = -1
			for _, world := range []*schemes.Env{noTest, badLR, {}} {
				if _, err := schemes.NewByName(b.scheme, world, schemes.FactoryOpts{}); err == nil {
					t.Fatal("expected error for invalid env")
				}
			}
		})
	}
}

func TestSFLStoresOneReplicaPerClient(t *testing.T) {
	tr := newBaseline(t, "sfl", 2, 7).(*Trainer)
	if tr.ServerReplicaCount() != 7 {
		t.Fatalf("replicas = %d, want 7 (one per client)", tr.ServerReplicaCount())
	}
	if tr.ServerStorageBytes() <= 0 {
		t.Fatal("storage must be positive")
	}
}

// The baselines' lanes train on concurrent goroutines; curves (including
// the serially-priced transfer latencies) must be bit-identical to a
// single-worker run.
func TestBaselinesBitIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, b := range baselines {
		t.Run(b.scheme, func(t *testing.T) {
			run := func(workers int) *metrics.Curve {
				parallel.SetWorkers(workers)
				return schemestest.RunCurve(t, newBaseline(t, b.scheme, 41, 6), 5, 1)
			}
			base := run(1)
			for _, workers := range []int{2, 8} {
				mustEqualCurves(t, workers, base, run(workers))
			}
		})
	}
}

// TestServerReplicaCountSurvivesSmallCohort: the population path
// re-slices the grouping to min(M, cohort) every round, but the edge
// server still hosts M replicas.
func TestServerReplicaCountSurvivesSmallCohort(t *testing.T) {
	spec := env.TestSpec()
	spec.Groups = spec.Clients
	spec.Population = 4 * spec.Clients
	spec.SampleFraction = 0.125 // cohort of 3 behind M = 6
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(world, schemes.FactoryOpts{Groups: spec.Groups})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.ServerStorageBytes()
	schemestest.MustRound(t, tr)
	if len(tr.Groups()) >= spec.Groups {
		t.Fatalf("fixture too tame: cohort formed %d groups, want fewer than M=%d", len(tr.Groups()), spec.Groups)
	}
	if tr.ServerReplicaCount() != spec.Groups || tr.ServerStorageBytes() != before {
		t.Fatalf("after a cohort of %d: %d replicas / %d bytes, want %d / %d",
			len(tr.Groups()), tr.ServerReplicaCount(), tr.ServerStorageBytes(), spec.Groups, before)
	}
}
