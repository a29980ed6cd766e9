// Package sl implements vanilla split learning, the paper's first
// benchmark scheme.
//
// One client-side model and one server-side model exist. Clients train
// strictly sequentially: client i runs its local split steps against the
// shared server-side model, then the client-side model is relayed
// through the AP to client i+1. One round visits every client once.
// Because only one client is ever active, each transfer enjoys the full
// uplink/downlink budget — but nothing happens in parallel, which is
// exactly the long-training-latency weakness GSFL attacks.
package sl

import (
	"context"
	"fmt"

	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

func init() {
	schemes.Register("sl", func(env *schemes.Env, _ schemes.FactoryOpts) (schemes.Trainer, error) {
		return New(env)
	})
}

// Trainer is the vanilla-SL scheme mid-training.
type Trainer struct {
	env *schemes.Env

	m         *model.SplitModel
	clientOpt *optim.SGD
	serverOpt *optim.SGD
	loaders   []*data.Loader

	// ws is the single training-step workspace — SL trains one client at
	// a time, so one replica's worth of scratch suffices.
	ws schemes.StepWorkspace

	// round counts completed rounds (trace labels only; SL has no
	// round-keyed RNG streams).
	round int
}

// New validates the environment and assembles an SL trainer.
func New(env *schemes.Env) (*Trainer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if env.Pop != nil {
		return nil, fmt.Errorf("sl: population sampling is not supported (sequential schemes train the full client list; use gsfl, fl, or sfl)")
	}
	t := &Trainer{
		env:       env,
		m:         env.Arch.NewSplit(env.Rng("init", 0), env.Cut),
		clientOpt: env.NewOptimizer(),
		serverOpt: env.NewOptimizer(),
	}
	t.loaders = make([]*data.Loader, env.Fleet.N())
	for ci, ds := range env.Train {
		t.loaders[ci] = data.NewLoader(ds, env.Hyper.Batch, env.Arch.InShape, env.Rng("loader", ci))
	}
	return t, nil
}

// Name implements schemes.Trainer.
func (t *Trainer) Name() string { return "sl" }

// Round implements schemes.Trainer: every client trains once, in order,
// with the client model relayed between consecutive clients.
// Cancellation is honoured between client turns.
func (t *Trainer) Round(ctx context.Context) (*simnet.Ledger, error) {
	env := t.env
	env.Channel.AdvanceRound() // new fading stream + client mobility
	t.round++
	rt := env.BeginRoundTrace("sl", t.round)
	led := &simnet.Ledger{}
	rt.Lane("chain", -1, led) // one strictly sequential lane
	n := env.Fleet.N()
	up := env.Channel.UplinkHz() // sole active client: full budget
	down := env.Channel.DownlinkHz()
	for ci := 0; ci < n; ci++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rt.BeginSlot(led, "client", ci)
		for s := 0; s < env.Hyper.StepsPerClient; s++ {
			t.loaders[ci].NextInto(&t.ws.Batch)
			t.ws.SplitStep(t.m, t.clientOpt, t.serverOpt, t.ws.Batch, env.Hyper.QuantizeTransfers)
			schemes.StepLatency(env, t.m, ci, len(t.ws.Batch.Y), up, down, led)
		}
		// Hand the client model to the next client (wrapping to next
		// round's first client), always through the AP.
		next := (ci + 1) % n
		schemes.RelayLatency(env, t.m, ci, next, up, down, led)
		rt.EndSlot(led)
	}
	rt.End(led)
	return led, nil
}

// Evaluate implements schemes.Trainer.
func (t *Trainer) Evaluate(ctx context.Context) (schemes.Eval, error) {
	return schemes.Evaluate(ctx, t.m, t.env.Test, t.env.Arch.InShape)
}

// StateParts implements schemes.Checkpointer. SL's persistent state is
// the single shared split model (trained in place, never rebuilt from
// snapshots), its optimizer pair, the per-client loaders, and the round
// counter.
func (t *Trainer) StateParts() schemes.StateParts {
	return schemes.StateParts{
		Scheme:  "sl",
		Round:   &t.round,
		Channel: t.env.Channel,
		Models:  []schemes.ModelPart{{Net: t.m.Client}, {Net: t.m.Server}},
		Opts:    []*optim.SGD{t.clientOpt, t.serverOpt},
		Loaders: t.loaders,
	}
}
