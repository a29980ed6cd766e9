// Package cl implements centralized learning, the paper's upper-bound
// baseline: the edge server trains the full model on the pooled data of
// all clients.
//
// CL has no wireless cost per round (the data is assumed resident at the
// server) and the server's compute capacity makes its rounds fast —
// it is the accuracy ceiling the distributed schemes are measured
// against, not a deployable alternative (it violates the privacy
// constraint that motivates FL/SL in the first place).
package cl

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
	schemes.Register("cl", func(env *schemes.Env, _ schemes.FactoryOpts) (schemes.Trainer, error) {
		return New(env)
	})
}

// Trainer is the centralized baseline mid-training.
type Trainer struct {
	env *schemes.Env

	m      *model.SplitModel // full model held server-side (cut 0)
	opt    *optim.SGD
	loader *data.Loader
	// stepsPerRound matches the total update count of one GSFL/SL round
	// so accuracy-vs-rounds curves are update-for-update comparable.
	stepsPerRound int

	// ws is the single training-step workspace (batch + loss gradient).
	ws schemes.StepWorkspace

	// round counts completed rounds (trace labels only).
	round int
	// chain is every task the last round charged (reused).
	chain []simnet.Task
}

// New validates the environment and assembles a CL trainer. The pooled
// dataset is the concatenation of every client's data.
func New(env *schemes.Env) (*Trainer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if env.Pop != nil {
		return nil, fmt.Errorf("cl: population sampling is not supported (sequential schemes train the full client list; use gsfl, fl, or sfl)")
	}
	pooled := pool(env.Train)
	t := &Trainer{
		env:           env,
		m:             env.Arch.NewSplit(env.Rng("init", 0), 0),
		opt:           env.Hyper.NewOptimizer(),
		loader:        data.NewLoader(pooled, env.Hyper.Batch, env.Arch.InShape, env.Rng("loader", 0)),
		stepsPerRound: env.Fleet.N() * env.Hyper.StepsPerClient,
	}
	return t, nil
}

// pool concatenates client datasets into one in-memory dataset (feature
// slices are shared, not copied).
func pool(parts []data.Dataset) data.Dataset {
	var x [][]float64
	var y []int
	classes := parts[0].Classes()
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			f, label := p.Sample(i)
			x = append(x, f)
			y = append(y, label)
		}
	}
	return data.NewInMemory(x, y, classes)
}

// Name implements schemes.Trainer.
func (t *Trainer) Name() string { return "cl" }

// Round implements schemes.Trainer: N*StepsPerClient SGD steps on pooled
// data, all on the edge server. Cancellation is honoured between steps.
func (t *Trainer) Round(ctx context.Context) (*simnet.Ledger, error) {
	t.round++
	led := &simnet.Ledger{}
	led.Record(&t.chain)
	server := t.env.Fleet.Server
	perSample := 3 * t.m.ServerFwdFLOPs() // cut 0: whole model is server-side
	for s := 0; s < t.stepsPerRound; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.loader.NextInto(&t.ws.Batch)
		t.ws.LocalStep(t.m.Server, t.opt, t.ws.Batch)
		schemes.Charge(t.env, simnet.Task{Kind: simnet.TaskCompute, Component: simnet.ServerCompute,
			Seconds: server.ComputeSeconds(perSample * int64(len(t.ws.Batch.Y)))}, 0, 0, led)
	}
	if t.env.Trace != nil {
		// Everything runs on the edge server.
		t.env.TraceRound("cl", t.round, []schemes.TraceLane{{Name: "server", Chain: t.chain}}, led)
	}
	return led, nil
}

// Evaluate implements schemes.Trainer.
func (t *Trainer) Evaluate(ctx context.Context) (schemes.Eval, error) {
	return schemes.Evaluate(ctx, t.m, t.env.Test, t.env.Arch.InShape)
}

// StateParts implements schemes.Checkpointer. CL's persistent state is
// the full model (held server-side at cut 0), its optimizer, the pooled
// loader, and the round counter.
func (t *Trainer) StateParts() schemes.StateParts {
	return schemes.StateParts{
		Scheme:  "cl",
		Round:   &t.round,
		Channel: t.env.Channel,
		Models:  []schemes.ModelPart{{Net: t.m.Server}},
		Opts:    []*optim.SGD{t.opt},
		Loaders: []*data.Loader{t.loader},
	}
}
