package env_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"gsfl/env"
	"gsfl/internal/gsfl"
	"gsfl/internal/model"
)

// runSimRounds drives the in-process simulator for `rounds` rounds and
// returns the aggregated global halves.
func runSimRounds(t *testing.T, spec env.Spec, rounds int) (client, server model.Snapshot) {
	t.Helper()
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gsfl.New(world, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if _, err := tr.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return tr.GlobalSnapshots()
}

// runTCPRounds drives the same configuration as a real TCP deployment —
// an AP plus one connected client per shard — and returns the
// aggregated global halves.
func runTCPRounds(t *testing.T, spec env.Spec, rounds int) (client, server model.Snapshot) {
	t.Helper()
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The group assignment must match the simulator's; it is derived
	// from the env seed, so a fresh trainer reproduces it.
	opts, err := spec.SchemeOptions()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gsfl.New(world, opts)
	if err != nil {
		t.Fatal(err)
	}

	ap, err := env.NewAP("127.0.0.1:0", env.APConfig{
		Arch:           world.Arch,
		Cut:            world.Cut,
		Groups:         tr.Groups(),
		StepsPerClient: world.Hyper.StepsPerClient,
		LR:             world.Hyper.LR,
		Momentum:       world.Hyper.Momentum,
		ClipNorm:       world.Hyper.ClipNorm,
		LRDecayFactor:  world.Hyper.LRDecayFactor,
		LRDecayEvery:   world.Hyper.LRDecayEvery,
		Test:           world.Test,
		Seed:           world.Seed, // = spec.EnvSeed(): same init stream as the trainer
		Quantize:       world.Hyper.QuantizeTransfers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ap.Shutdown()
	for ci, ds := range world.Train {
		cl, err := env.Dial(ap.Addr(), env.ClientConfig{
			ID:            ci,
			Arch:          world.Arch,
			Cut:           world.Cut,
			Train:         ds,
			Batch:         world.Hyper.Batch,
			LR:            world.Hyper.LR,
			Momentum:      world.Hyper.Momentum,
			ClipNorm:      world.Hyper.ClipNorm,
			LRDecayFactor: world.Hyper.LRDecayFactor,
			LRDecayEvery:  world.Hyper.LRDecayEvery,
			Seed:          world.Seed, // same loader stream as trainer client ci
			Quantize:      world.Hyper.QuantizeTransfers,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Run(); err != nil {
				t.Errorf("client error: %v", err)
			}
		}()
	}
	if err := ap.WaitForClients(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		stats, err := ap.Round()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Stragglers != 0 || stats.Skipped != 0 {
			t.Fatalf("fault-free round produced stats %+v", stats)
		}
	}
	return ap.GlobalSnapshots()
}

// TestTCPRoundMatchesSimulatorBitForBit is the cross-substrate identity
// contract: a fault-free TCP deployment at seed S produces, after any
// number of rounds, the exact global model the in-process simulator
// produces at seed S. Everything that could diverge — init streams,
// loader shuffles, relayed optimizer state, aggregation order and
// weights — is pinned by this test. Two rounds, not one, so the
// cross-round state relays (client optimizer momentum, group replicas)
// are exercised.
func TestTCPRoundMatchesSimulatorBitForBit(t *testing.T) {
	run := func(t *testing.T, spec env.Spec) {
		simC, simS := runSimRounds(t, spec, 2)
		tcpC, tcpS := runTCPRounds(t, spec, 2)
		if d := simC.L2Distance(tcpC); d != 0 {
			t.Errorf("client halves diverged: L2 distance %v", d)
		}
		if d := simS.L2Distance(tcpS); d != 0 {
			t.Errorf("server halves diverged: L2 distance %v", d)
		}
	}
	t.Run("full-precision", func(t *testing.T) {
		run(t, env.TestSpec())
	})
	t.Run("quantized-transfers", func(t *testing.T) {
		spec := env.TestSpec()
		spec.Hyper.QuantizeTransfers = true
		run(t, spec)
	})
}

// TestDeployReExports pins the deployment surface the commands build on.
func TestDeployReExports(t *testing.T) {
	names := env.StragglerPolicies()
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["drop"] || !has["reuse-last"] {
		t.Fatalf("policies %v missing built-ins", names)
	}
	if env.ErrShutdown == nil {
		t.Fatal("ErrShutdown not exported")
	}
	if _, err := env.RunLoadGen(env.LoadGenConfig{}); err == nil {
		t.Fatal("empty loadgen config accepted")
	}
}
