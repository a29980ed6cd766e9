// Package schemestest provides shared fixtures for testing the training
// schemes: a small, quickly learnable synthetic classification task and
// a fully assembled environment around it.
//
// The task is Gaussian blobs: class c's features cluster around a
// class-specific mean. An MLP separates them within a few dozen SGD
// steps, so end-to-end scheme tests can assert real learning (accuracy
// far above chance) in milliseconds.
package schemestest

import (
	"context"
	"math/rand"
	"testing"

	"gsfl/internal/data"
	"gsfl/internal/device"
	"gsfl/internal/metrics"
	"gsfl/internal/model"
	"gsfl/internal/partition"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
	"gsfl/internal/wireless"
)

// RunCurve drives a trainer for the given number of rounds, evaluating
// every evalEvery rounds (and always after the final round), and fails
// the test on any error. It mirrors the sim.Runner loop without
// importing gsfl/sim, which scheme packages' in-package tests cannot
// (sim imports every scheme for registration).
func RunCurve(tb testing.TB, tr schemes.Trainer, rounds, evalEvery int) *metrics.Curve {
	tb.Helper()
	ctx := context.Background()
	curve := &metrics.Curve{Scheme: tr.Name()}
	elapsed := 0.0
	for r := 1; r <= rounds; r++ {
		led, err := tr.Round(ctx)
		if err != nil {
			tb.Fatalf("round %d: %v", r, err)
		}
		elapsed += led.Total()
		if r%evalEvery == 0 || r == rounds {
			ev, err := tr.Evaluate(ctx)
			if err != nil {
				tb.Fatalf("evaluating after round %d: %v", r, err)
			}
			curve.Append(metrics.Point{Round: r, LatencySeconds: elapsed, Loss: ev.Loss, Accuracy: ev.Accuracy})
		}
	}
	return curve
}

// MustRound runs one round, failing the test on error.
func MustRound(tb testing.TB, tr schemes.Trainer) *simnet.Ledger {
	tb.Helper()
	led, err := tr.Round(context.Background())
	if err != nil {
		tb.Fatalf("round: %v", err)
	}
	return led
}

// MustEval evaluates, failing the test on error.
func MustEval(tb testing.TB, tr schemes.Trainer) schemes.Eval {
	tb.Helper()
	ev, err := tr.Evaluate(context.Background())
	if err != nil {
		tb.Fatalf("evaluate: %v", err)
	}
	return ev
}

// BlobClasses is the number of classes in the toy task.
const BlobClasses = 4

// BlobDim is the feature dimensionality of the toy task.
const BlobDim = 8

// Blobs generates n samples of the Gaussian-blob task.
func Blobs(n int, noise float64, rng *rand.Rand) *data.InMemory {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(BlobClasses)
		f := make([]float64, BlobDim)
		for j := range f {
			f[j] = noise * rng.NormFloat64()
		}
		// Two coordinates carry the class signal.
		f[c*2%BlobDim] += 2
		f[(c*2+1)%BlobDim] += 1.5
		x[i] = f
		y[i] = c
	}
	return data.NewInMemory(x, y, BlobClasses)
}

// NewEnv builds a complete toy environment: nClients clients with IID
// blob data, an MLP cut at its default index, a heterogeneous fleet, and
// a default wireless channel. Deterministic in seed.
func NewEnv(seed int64, nClients, samplesPerClient int) *schemes.Env {
	rng := rand.New(rand.NewSource(seed))
	pool := Blobs(nClients*samplesPerClient, 0.6, rng)
	test := Blobs(200, 0.6, rand.New(rand.NewSource(seed+1)))

	env := &schemes.Env{
		Arch:    model.MLP(BlobDim, 16, BlobClasses),
		Cut:     model.MLPDefaultCut,
		Fleet:   device.NewFleet(device.DefaultConfig(nClients), seed+2),
		Channel: wireless.NewChannel(wireless.DefaultConfig(), nClients, seed+3),
		Alloc:   wireless.Uniform{},
		Test:    test,
		Hyper: schemes.Hyper{
			Batch:          8,
			StepsPerClient: 4,
			LR:             0.05,
			Momentum:       0.9,
			ClipNorm:       10,
		},
		Seed: seed + 4,
	}
	subsets := partition.IID(pool, nClients, rand.New(rand.NewSource(seed+5)))
	env.Train = make([]data.Dataset, len(subsets))
	for i, s := range subsets {
		env.Train[i] = s
	}
	if err := env.Validate(); err != nil {
		panic("schemestest: invalid fixture env: " + err.Error())
	}
	return env
}
