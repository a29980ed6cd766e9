package gsfl

import (
	"testing"

	"gsfl/env"
	"gsfl/internal/device"
	"gsfl/internal/metrics"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/simnet"
	"gsfl/internal/wireless"
)

// The baselines are registrations of this package's engine; these are
// the behavioural tests their own packages carried, driven through the
// registry so they exercise exactly what "sl", "sfl" and "fl" resolve to.

// baselines lists what differs between the rows of each table test.
var baselines = []struct {
	scheme string
	// learnRounds/evalEvery size the learns-blobs run; minAccuracy is the
	// final accuracy it must reach.
	learnRounds, evalEvery int
	minAccuracy            float64
	// pays lists the latency components a round charges; every other
	// component must stay zero.
	pays []simnet.Component
	// scalesOK judges the 4-client vs 8-client round latency.
	scalesOK func(small, large float64) bool
	scaling  string
}{
	// Vanilla SL relays its one model and never aggregates.
	{"sl", 10, 2, 0.7,
		[]simnet.Component{simnet.ClientCompute, simnet.Uplink, simnet.ServerCompute, simnet.Downlink, simnet.Relay},
		func(small, large float64) bool { return large >= 1.5*small },
		"sequential training: doubling the clients should roughly double the round"},
	// SplitFed pays every component, FedAvg included.
	{"sfl", 15, 3, 0.7, simnet.Components(),
		func(small, large float64) bool { return large < 1.9*small },
		"all clients train at once: latency must scale sublinearly in the fleet size"},
	// FL has no split point: the server never computes activations and no
	// client-model relays occur.
	{"fl", 20, 4, 0.6,
		[]simnet.Component{simnet.ClientCompute, simnet.Uplink, simnet.Downlink, simnet.Aggregation},
		func(small, large float64) bool { return large < 2*small },
		"all clients train at once and only the whole-model transfers split the spectrum: latency must grow slower than the fleet"},
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
			if acc := curve.FinalAccuracy(); acc < b.minAccuracy {
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
			pays := make(map[simnet.Component]bool)
			for _, c := range b.pays {
				pays[c] = true
			}
			for _, c := range simnet.Components() {
				if paid := led.Get(c) > 0; paid != pays[c] {
					t.Fatalf("component %v = %v, want paid=%v", c, led.Get(c), pays[c])
				}
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

func TestFLTransfersFullModel(t *testing.T) {
	// FL uplink time per round must exceed SL-style smashed-data uplink
	// cost scaled appropriately; here we simply verify the uplink
	// component reflects full-model bytes by checking it dwarfs the
	// aggregation time.
	led := schemestest.MustRound(t, newBaseline(t, "fl", 5, 4))
	if led.Get(simnet.Uplink) <= led.Get(simnet.Aggregation) {
		t.Fatalf("uplink %v should dominate aggregation %v",
			led.Get(simnet.Uplink), led.Get(simnet.Aggregation))
	}
}

func TestFLParallelRoundBeatsSequentialSum(t *testing.T) {
	// FL trains clients in parallel; its round latency (slowest client
	// under shared bandwidth, plus aggregation) must be well below the
	// cost of serving the clients one at a time, each with the full
	// bandwidth. Use a homogeneous fleet and disable fading so both sides
	// are exactly computable.
	env := schemestest.NewEnv(6, 8, 40)
	dcfg := device.DefaultConfig(8)
	dcfg.ClientSpread = 0
	env.Fleet = device.NewFleet(dcfg, 99)
	wcfg := wireless.DefaultConfig()
	wcfg.FadingJitter = 0
	env.Channel = wireless.NewChannel(wcfg, 8, 100)

	tr, err := schemes.NewByName("fl", env, schemes.FactoryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	concurrent := schemestest.MustRound(t, tr).Total()

	// Sequential estimate: every client gets the full budget but they go
	// one after another.
	probe := env.Arch.NewSplit(env.Rng("probe", 1), len(env.Arch.Build(env.Rng("probe", 2))))
	bytes := probe.ClientParamBytes()
	perStep := 3 * probe.ClientFwdFLOPs() * int64(env.Hyper.Batch)
	sequential := 0.0
	for ci := 0; ci < 8; ci++ {
		sequential += env.Channel.TransferSeconds(ci, bytes, env.Channel.DownlinkHz(), false)
		sequential += env.Fleet.Clients[ci].ComputeSeconds(perStep) * float64(env.Hyper.StepsPerClient)
		sequential += env.Channel.TransferSeconds(ci, bytes, env.Channel.UplinkHz(), true)
	}
	if concurrent >= sequential {
		t.Fatalf("parallel FL round (%v) not below sequential sum (%v)", concurrent, sequential)
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
