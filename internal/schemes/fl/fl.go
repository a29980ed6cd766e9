// Package fl implements federated learning with FedAvg, the paper's
// second benchmark scheme.
//
// Every client holds the full model and trains locally on its private
// data; each round all clients train in parallel, upload the full model
// over the shared uplink, the AP FedAvg-aggregates, and all clients
// download the new global model. The full-model transfers are FL's
// weakness in resource-limited wireless networks — the communication
// overhead the paper's introduction calls out — and non-IID client data
// slows its convergence in rounds, which is why GSFL beats it by ~5x.
package fl

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
	schemes.Register("fl", func(env *schemes.Env, _ schemes.FactoryOpts) (schemes.Trainer, error) {
		return New(env)
	})
}

// Trainer is the FedAvg scheme mid-training.
type Trainer struct {
	env *schemes.Env

	// global is the aggregated full model (represented as a SplitModel
	// with an all-client cut so FLOPs/bytes helpers apply).
	global  model.Snapshot
	locals  []*model.SplitModel
	opts    []*optim.SGD
	loaders []*data.Loader
	weights []float64 // samples in the shard mounted on each slot

	evalModel *model.SplitModel

	// Per-client reusable state: stepWS[ci] holds client ci's batch and
	// loss-gradient buffers; caps[ci] is its re-captured model snapshot
	// for FedAvg.
	stepWS []schemes.StepWorkspace
	caps   []model.Snapshot

	// round counts completed rounds (keys the population's sampling
	// stream).
	round int
}

// New validates the environment and assembles an FL trainer. The env's
// Cut is ignored: FL always trains the full model on the client.
func New(env *schemes.Env) (*Trainer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	fullCut := len(env.Arch.Build(env.Rng("probe", 0)))
	t := &Trainer{env: env}

	init := env.Arch.NewSplit(env.Rng("init", 0), fullCut)
	t.global = model.TakeSnapshot(init.Client)
	t.evalModel = init

	n := env.Fleet.N()
	t.locals = make([]*model.SplitModel, n)
	t.opts = make([]*optim.SGD, n)
	t.loaders = make([]*data.Loader, n)
	t.weights = make([]float64, n)
	t.stepWS = make([]schemes.StepWorkspace, n)
	t.caps = make([]model.Snapshot, n)
	for ci := 0; ci < n; ci++ {
		t.locals[ci] = env.Arch.NewSplit(env.Rng("local", ci), fullCut)
		t.opts[ci] = env.Hyper.NewOptimizer()
		t.loaders[ci] = data.NewLoader(env.Train[ci], env.Hyper.Batch, env.Arch.InShape, env.Rng("loader", ci))
		t.weights[ci] = float64(env.Train[ci].Len())
	}
	return t, nil
}

// Name implements schemes.Trainer.
func (t *Trainer) Name() string { return "fl" }

// Round implements schemes.Trainer: parallel local training, concurrent
// full-model upload, FedAvg, concurrent download.
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

	// Tracing (nil when disabled): one virtual-clock lane per client.
	// Lanes attach before the parallel section so the trace bookkeeping
	// never races; span emission inside it stays per-lane.
	rt := env.BeginRoundTrace("fl", t.round)
	clientLeds := make([]*simnet.Ledger, n)
	for ci := range clientLeds {
		clientLeds[ci] = &simnet.Ledger{}
		rt.Lane("client", ci, clientLeds[ci])
	}
	// Clients train concurrently — FL's defining parallelism, executed as
	// real goroutines. Each client touches only its own local model,
	// optimizer, and loader (t.global is read-only during the round), so
	// scheduling cannot perturb numerics. Local compute is priced inside
	// the loop because ComputeSeconds is a pure function; the wireless
	// transfers draw from the shared channel RNG and are priced serially
	// below.
	parallel.For(n, 1, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			led := clientLeds[ci]
			local := t.locals[ci]
			ws := &t.stepWS[ci]
			t.global.Restore(local.Client)
			dev := env.Fleet.Clients[ci]
			for s := 0; s < env.Hyper.StepsPerClient; s++ {
				t.loaders[ci].NextInto(&ws.Batch)
				ws.LocalStep(local.Client, t.opts[ci], ws.Batch)
				led.Add(simnet.ClientCompute,
					dev.ComputeSeconds(3*local.ClientFwdFLOPs()*int64(len(ws.Batch.Y))))
			}
		}
	})
	// Price the global-model download and trained-model upload serially
	// in client order, consuming the channel's fading RNG in the same
	// sequence as a single-worker run (training itself draws nothing).
	for ci := 0; ci < n; ci++ {
		led := clientLeds[ci]
		led.Add(simnet.Downlink,
			env.Channel.TransferSeconds(ci, t.locals[ci].TotalParamBytes(), downAlloc[ci], false))
		led.Add(simnet.Uplink,
			env.Channel.TransferSeconds(ci, t.locals[ci].TotalParamBytes(), upAlloc[ci], true))
	}

	round := simnet.MaxOf(clientLeds)
	rt.TailLane("ap", -1, round)

	for ci := 0; ci < n; ci++ {
		t.caps[ci].CaptureFrom(t.locals[ci].Client)
	}
	agg.FedAvgInto(&t.global, t.caps[:n], t.weights[:n])
	schemes.AggregationLatency(env, n, t.global.ParamCount(), round)
	rt.End(round)
	return round, nil
}

// Evaluate implements schemes.Trainer.
func (t *Trainer) Evaluate(ctx context.Context) (schemes.Eval, error) {
	t.global.Restore(t.evalModel.Client)
	return schemes.Evaluate(ctx, t.evalModel, t.env.Test, t.env.Arch.InShape)
}

// StateParts implements schemes.Checkpointer. FL's persistent state is
// the aggregated global model (local replicas are rewritten from it
// every round), the per-client optimizers, the loaders, and the round
// counter (which keys the population sampling stream).
func (t *Trainer) StateParts() schemes.StateParts {
	return schemes.StateParts{
		Scheme:          "fl",
		Round:           &t.round,
		Channel:         t.env.Channel,
		Models:          []schemes.ModelPart{{Net: t.evalModel.Client, Snap: &t.global}},
		Opts:            t.opts,
		Loaders:         t.loaders,
		ReplayedLoaders: t.env.Pop != nil,
	}
}
