// Package sfl implements SplitFed learning (SFL), the hybrid
// federated/split scheme the paper's introduction critiques: every
// client trains in parallel split-learning fashion against its OWN
// server-side replica, and both halves are FedAvg-aggregated each round.
//
// SFL is the degenerate GSFL configuration M = N (every group has one
// client). It maximizes parallelism but requires the edge server to host
// N server-side models — the "prohibitive storage resources" problem
// (Table 3) that motivates GSFL's group-based middle ground — and its N
// concurrent uplink transfers squeeze per-client bandwidth.
package sfl

import (
	"context"

	"gsfl/internal/agg"
	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

func init() {
	schemes.Register("sfl", func(env *schemes.Env, _ schemes.FactoryOpts) (schemes.Trainer, error) {
		return New(env)
	})
}

// Trainer is the SplitFed scheme mid-training.
type Trainer struct {
	env *schemes.Env

	globalClient model.Snapshot
	globalServer model.Snapshot

	replicas   []*model.SplitModel // one per client
	clientOpts []*optim.SGD
	serverOpts []*optim.SGD
	loaders    []*data.Loader
	weights    []float64 // samples in the shard mounted on each slot

	evalModel *model.SplitModel

	// Per-client reusable state: stepWS[ci] is client ci's training-step
	// workspace; capClient/capServer[ci] its re-captured snapshots for
	// aggregation (the agg inputs FedAvgInto consumes).
	stepWS               []schemes.StepWorkspace
	capClient, capServer []model.Snapshot

	// round counts completed rounds (keys the population's sampling
	// stream).
	round int
}

// New validates the environment and assembles a SplitFed trainer.
func New(env *schemes.Env) (*Trainer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	t := &Trainer{env: env}
	init := env.Arch.NewSplit(env.Rng("init", 0), env.Cut)
	t.globalClient = model.TakeSnapshot(init.Client)
	t.globalServer = model.TakeSnapshot(init.Server)
	t.evalModel = init

	n := env.Fleet.N()
	t.replicas = make([]*model.SplitModel, n)
	t.clientOpts = make([]*optim.SGD, n)
	t.serverOpts = make([]*optim.SGD, n)
	t.loaders = make([]*data.Loader, n)
	t.weights = make([]float64, n)
	t.stepWS = make([]schemes.StepWorkspace, n)
	t.capClient = make([]model.Snapshot, n)
	t.capServer = make([]model.Snapshot, n)
	for ci := 0; ci < n; ci++ {
		t.replicas[ci] = env.Arch.NewSplit(env.Rng("replica", ci), env.Cut)
		t.clientOpts[ci] = env.NewOptimizer()
		t.serverOpts[ci] = env.NewOptimizer()
		t.loaders[ci] = data.NewLoader(env.Train[ci], env.Hyper.Batch, env.Arch.InShape, env.Rng("loader", ci))
		t.weights[ci] = float64(env.Train[ci].Len())
	}
	return t, nil
}

// Name implements schemes.Trainer.
func (t *Trainer) Name() string { return "sfl" }

// ServerReplicaCount returns N — the storage cost GSFL reduces to M.
func (t *Trainer) ServerReplicaCount() int { return len(t.replicas) }

// ServerStorageBytes returns the edge-server memory for all replicas.
func (t *Trainer) ServerStorageBytes() int64 {
	return int64(t.ServerReplicaCount()) * t.globalServer.WireBytes()
}

// Round implements schemes.Trainer: all clients train concurrently
// against their own server replicas, then both halves aggregate.
func (t *Trainer) Round(ctx context.Context) (*simnet.Ledger, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := t.env
	env.Channel.AdvanceRound() // new fading stream + client mobility
	t.round++
	n := env.Fleet.N()
	if env.Pop != nil {
		// Population mode: train only the sampled cohort. Bindings are
		// dense (binding i owns slot i), so the round body below simply
		// runs over the first n slots, weighted by the mounted shards.
		binds, err := env.Pop.BeginRound(t.round)
		if err != nil {
			return nil, err
		}
		if len(binds) == 0 {
			return &simnet.Ledger{}, nil
		}
		for i := range binds {
			b := &binds[i]
			t.loaders[b.Slot].Reset(env.Train[b.Shard], b.LoaderSeed)
			t.weights[b.Slot] = float64(env.Train[b.Shard].Len())
		}
		n = len(binds)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	upAlloc := env.Alloc.Allocate(env.Channel, all, env.Channel.UplinkHz(), true)
	downAlloc := env.Alloc.Allocate(env.Channel, all, env.Channel.DownlinkHz(), false)

	// Tracing (nil when disabled): one virtual-clock lane per client,
	// attached before the parallel section so bookkeeping never races.
	rt := env.BeginRoundTrace("sfl", t.round)
	clientLeds := make([]*simnet.Ledger, n)
	for ci := range clientLeds {
		clientLeds[ci] = &simnet.Ledger{}
		rt.Lane("client", ci, clientLeds[ci])
	}
	batchSizes := make([][]int, n)
	// All clients train concurrently against their own server replicas —
	// SplitFed's maximal parallelism, executed as real goroutines. Each
	// client touches only its own replica, optimizers, and loader, so
	// scheduling cannot perturb numerics.
	parallel.For(n, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			rep := t.replicas[ci]
			ws := &t.stepWS[ci]
			t.globalClient.Restore(rep.Client)
			t.globalServer.Restore(rep.Server)
			sizes := make([]int, env.Hyper.StepsPerClient)
			for s := 0; s < env.Hyper.StepsPerClient; s++ {
				t.loaders[ci].NextInto(&ws.Batch)
				ws.SplitStep(rep, t.clientOpts[ci], t.serverOpts[ci], ws.Batch, env.Hyper.QuantizeTransfers)
				sizes[s] = len(ws.Batch.Y)
			}
			batchSizes[ci] = sizes
		}
	})
	// Latency pricing draws from the shared channel RNG, so it runs
	// serially in client order — the same draw sequence as a
	// single-worker run, keeping ledgers bit-identical.
	for ci := 0; ci < n; ci++ {
		led := clientLeds[ci]
		rep := t.replicas[ci]
		// Client-side model download (model distribution).
		led.Add(simnet.Relay,
			env.Channel.TransferSeconds(ci, rep.ClientParamBytes(), downAlloc[ci], false))
		for _, bn := range batchSizes[ci] {
			schemes.StepLatency(env, rep, ci, bn, upAlloc[ci], downAlloc[ci], led)
		}
		// Client-side model upload for aggregation.
		led.Add(simnet.Relay,
			env.Channel.TransferSeconds(ci, rep.ClientParamBytes(), upAlloc[ci], true))
	}

	round := simnet.MaxOf(clientLeds)
	rt.TailLane("ap", -1, round)

	for ci := 0; ci < n; ci++ {
		t.capClient[ci].CaptureFrom(t.replicas[ci].Client)
		t.capServer[ci].CaptureFrom(t.replicas[ci].Server)
	}
	agg.FedAvgInto(&t.globalClient, t.capClient[:n], t.weights[:n])
	agg.FedAvgInto(&t.globalServer, t.capServer[:n], t.weights[:n])
	schemes.AggregationLatency(env, n,
		t.globalClient.ParamCount()+t.globalServer.ParamCount(), round)
	rt.End(round)
	return round, nil
}

// Evaluate implements schemes.Trainer.
func (t *Trainer) Evaluate(ctx context.Context) (schemes.Eval, error) {
	t.globalClient.Restore(t.evalModel.Client)
	t.globalServer.Restore(t.evalModel.Server)
	return schemes.Evaluate(ctx, t.evalModel, t.env.Test, t.env.Arch.InShape)
}

// StateParts implements schemes.Checkpointer. SplitFed's persistent
// state is the two aggregated global halves (per-client replicas are
// rewritten from them every round), the per-client optimizer pairs, the
// loaders, and the round counter (which keys the population sampling
// stream).
func (t *Trainer) StateParts() schemes.StateParts {
	p := schemes.StateParts{
		Scheme:  "sfl",
		Round:   &t.round,
		Channel: t.env.Channel,
		Models: []schemes.ModelPart{
			{Net: t.evalModel.Client, Snap: &t.globalClient},
			{Net: t.evalModel.Server, Snap: &t.globalServer},
		},
		Loaders:         t.loaders,
		ReplayedLoaders: t.env.Pop != nil,
	}
	for ci := range t.replicas {
		p.Opts = append(p.Opts, t.clientOpts[ci], t.serverOpts[ci])
	}
	return p
}
