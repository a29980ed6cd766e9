// Package gsfl implements the paper's contribution: group-based split
// federated learning.
//
// GSFL partitions N clients into M groups and trains in a
// split-then-federated manner each round:
//
//  1. Model distribution — the AP sends the (aggregated) client-side
//     model to the first client of every group; each group gets its own
//     replica of the server-side model at the edge server.
//  2. Model training — within a group, clients train sequentially in
//     split-learning fashion: client-side forward, smashed-data upload,
//     server-side forward/backward at the AP, cut-gradient download,
//     client-side backward; after a client finishes its local steps the
//     client-side model is relayed through the AP to the group's next
//     client. The M groups run in parallel, sharing the wireless uplink
//     and downlink budgets.
//  3. Model aggregation — the AP FedAvg-aggregates the M client-side and
//     M server-side models into new global halves.
//
// Latency follows the same structure: sequential stages within a group
// add, the M groups compose via max (parallel), aggregation adds at the
// end. Bandwidth is shared position-wise: while every group is training
// its p-th client, those M clients split the spectrum via the env's
// Allocator; a group with fewer clients simply stops contending after it
// finishes (modelled by allocating over the groups still active at each
// position).
//
// Execution mirrors the model: the M groups really do train on
// concurrent goroutines (internal/parallel), one task per group per
// round. A task runs its group's whole turn chain — distribution into
// the group's replica, every member's split steps in turn, the capture
// for aggregation — touching only state the group owns: its replica,
// optimizer state, step workspace, and its members' data loaders.
// Latency pricing, which consumes the shared wireless fading RNG, runs
// after the join, serially in (position, group) order from the batch
// sizes the tasks recorded, so both training numerics and ledgers are
// bit-identical for any worker count.
//
// The paper's baselines other than centralized learning are members of
// the same family, and this package registers them as such: vanilla
// split learning ("sl") is one group of N, SplitFed ("sfl") is N groups
// of one, and FedAvg ("fl") is SplitFed with the cut after the last
// layer. Their training numerics are the engine's at that M and cut;
// what each fixes beyond them is how the round is priced (see plan).
package gsfl

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"gsfl/internal/agg"
	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/parallel"
	"gsfl/internal/partition"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

// plan is what a registration fixes about the engine beyond its
// options: the scheme's name, its M, and the places where the baselines
// train or price a round differently from GSFL at the same M. Pricing
// order is bit-visible (every transfer draws from the shared fading
// RNG), and a "gsfl" run at M=1, M=N or a cut after the last layer keeps
// GSFL pricing, so no flag can be derived from M or the cut; they are
// per-registration constants, never options.
type plan struct {
	// scheme is the registry key, curve label, checkpoint scheme and
	// trace process.
	scheme string
	// groups maps the configured M and the client count N to the M the
	// scheme trains with.
	groups func(m, n int) int
	// chain is vanilla split learning: the one client-side model is
	// never distributed or aggregated, it circulates — the relay after
	// the last turn wraps to the round's first client — and the sole
	// active client takes the full uplink/downlink budget without the
	// allocator being consulted. Sequential schemes train the full
	// client list, so a population is rejected.
	chain bool
	// distributionInTurn prices each lane's Step-1 download at the head
	// of its own turn instead of for all lanes up front: the same
	// per-lane ledger, a different fading-draw order (SplitFed's).
	distributionInTurn bool
	// local is federated learning: the cut is after the architecture's
	// last layer, so the loss is computed on the client and nothing
	// crosses the air per step — a step prices client compute only, the
	// transfers are unquantized, the distribution and return of the
	// (whole) model are a Downlink and an Uplink rather than a Relay, and
	// the empty server half carries no state.
	local bool
}

var (
	gsflPlan = plan{scheme: "gsfl", groups: func(m, _ int) int { return m }}
	slPlan   = plan{scheme: "sl", groups: func(_, _ int) int { return 1 }, chain: true}
	sflPlan  = plan{scheme: "sfl", groups: func(_, n int) int { return n }, distributionInTurn: true}
	flPlan   = plan{scheme: "fl", groups: func(_, n int) int { return n }, distributionInTurn: true, local: true}
)

// Trainer is a grouped-split scheme mid-training. Create with New (or
// by registry name); drive with Round/Evaluate (typically via a
// gsfl/sim Runner).
type Trainer struct {
	env    *schemes.Env
	cfg    schemes.FactoryOpts
	plan   plan
	groups [][]int
	round  int

	// globalClient/globalServer are the aggregated halves after the most
	// recent round (the model the AP would deploy).
	globalClient model.Snapshot
	globalServer model.Snapshot

	// replicas[g] is group g's working split model; optimizer state is
	// kept per group across rounds.
	replicas   []*model.SplitModel
	clientOpts []*optim.SGD
	serverOpts []*optim.SGD

	loaders []*data.Loader
	// mounted[ci] is the sample count of the shard slot ci's loader is
	// reading: the client's own dataset in the classic path, the sampled
	// member's shard under a population. weights is the round's per-group
	// aggregation weights: mounted summed over each group's participants.
	mounted []float64
	weights []float64

	evalModel *model.SplitModel // scratch model for evaluation

	// Per-group reusable state, so steady-state rounds allocate nothing
	// beyond bookkeeping: stepWS[g] is group g's training-step workspace
	// (batch, loss gradient, quantization buffers); capClient/capServer[g]
	// are its re-captured parameter snapshots for aggregation. The agg*
	// slices are the per-round scratch lists of live-group snapshots and
	// weights handed to agg.FedAvgInto.
	stepWS               []schemes.StepWorkspace
	capClient, capServer []model.Snapshot
	aggClient, aggServer []model.Snapshot
	aggW                 []float64

	// batchSizes[g] is the batch size of each of group g's split steps
	// this round, in turn order, recorded by its training task for
	// pricing after the join; live is the round's live-group list. Both
	// are reused across rounds.
	batchSizes [][]int
	live       []int
	// chains[li] is every task live group li's ledger charged this
	// round, in order (RoundChains), and turns[li] the index in it of
	// each client turn's first task; tail is what the round's ledger
	// charged after the join (aggregation). The buffers are reused.
	chains [][]simnet.Task
	turns  [][]int
	tail   []simnet.Task

	// binds is the round's population bindings, binds[slot] the member
	// mounted on that slot; popCaps is the reusable capacity scratch for
	// per-round cohort regrouping.
	binds   []schemes.SlotBinding
	popCaps []float64
}

// New validates the environment and assembles a GSFL trainer.
func New(env *schemes.Env, cfg schemes.FactoryOpts) (*Trainer, error) {
	return newWithPlan(env, cfg, gsflPlan)
}

func newWithPlan(env *schemes.Env, cfg schemes.FactoryOpts, p plan) (*Trainer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if p.chain && env.Pop != nil {
		return nil, fmt.Errorf("%s: population sampling is not supported (sequential schemes train the full client list; use gsfl, fl, or sfl)", p.scheme)
	}
	cfg.Groups = p.groups(cfg.Groups, env.Fleet.N())
	if cfg.Groups <= 0 || cfg.Groups > env.Fleet.N() {
		return nil, fmt.Errorf("gsfl: %d groups for %d clients", cfg.Groups, env.Fleet.N())
	}
	if cfg.DropoutProb < 0 || cfg.DropoutProb >= 1 {
		return nil, fmt.Errorf("gsfl: dropout probability %v outside [0,1)", cfg.DropoutProb)
	}
	if _, err := partition.CanonicalStrategy(cfg.Strategy); err != nil {
		return nil, fmt.Errorf("gsfl: %w", err)
	}
	groups := partition.Groups(env.Fleet.N(), cfg.Groups, cfg.Strategy,
		env.Fleet.Capacities(), env.Rng("grouping", 0))

	t := &Trainer{env: env, cfg: cfg, plan: p, groups: groups}
	cut := env.Cut
	if p.local {
		cut = len(env.Arch.Build(env.Rng("probe", 0)))
	}

	// One global initialization shared by every replica, so round 0
	// starts from a single common model (the paper's model distribution).
	init := env.Arch.NewSplit(env.Rng("init", 0), cut)
	t.globalClient = model.TakeSnapshot(init.Client)
	t.globalServer = model.TakeSnapshot(init.Server)
	t.evalModel = init

	t.replicas = make([]*model.SplitModel, len(groups))
	t.clientOpts = make([]*optim.SGD, len(groups))
	t.serverOpts = make([]*optim.SGD, len(groups))
	t.stepWS = make([]schemes.StepWorkspace, len(groups))
	t.capClient = make([]model.Snapshot, len(groups))
	t.capServer = make([]model.Snapshot, len(groups))
	t.batchSizes = make([][]int, len(groups))
	for g := range groups {
		// Fresh structure; parameters are overwritten from the global
		// snapshots at the start of every round.
		t.replicas[g] = env.Arch.NewSplit(env.Rng("replica", g), cut)
		t.clientOpts[g] = env.Hyper.NewOptimizer()
		t.serverOpts[g] = env.Hyper.NewOptimizer()
	}

	t.loaders = make([]*data.Loader, env.Fleet.N())
	t.mounted = make([]float64, env.Fleet.N())
	for ci, ds := range env.Train {
		t.loaders[ci] = data.NewLoader(ds, env.Hyper.Batch, env.Arch.InShape, env.Rng("loader", ci))
		t.mounted[ci] = float64(ds.Len())
	}
	return t, nil
}

// Name implements schemes.Trainer.
func (t *Trainer) Name() string { return t.plan.scheme }

// Groups exposes the group assignment (read-only view for diagnostics).
func (t *Trainer) Groups() [][]int { return t.groups }

// RoundChains exposes the tasks each live group's ledger charged in the
// last Round, in order (read-only view; aggregation, priced after the
// join, is in none). It is empty after a round that priced nothing.
func (t *Trainer) RoundChains() [][]simnet.Task { return t.chains }

// ServerReplicaCount returns how many server-side models the edge server
// hosts — M for GSFL, the storage quantity Table 3 compares against
// SplitFed's N. It counts the replicas, not t.groups, which the
// population path re-slices to the cohort every round.
func (t *Trainer) ServerReplicaCount() int { return len(t.replicas) }

// ServerStorageBytes returns the edge-server memory the server-side
// replicas occupy.
func (t *Trainer) ServerStorageBytes() int64 {
	return int64(t.ServerReplicaCount()) * t.globalServer.WireBytes()
}

// mountCohort wires one round's sampled population members onto the
// physical slots: it keeps each slot's binding (the group task re-points
// the slot's loader at the member's data shard, under the member's
// participation seed, right before the member's turn), records the
// mounted shard sizes, and regroups the cohort (bindings are dense —
// binding i owns slot i — so group member indices remain valid slot
// indices). The per-round regrouping draws from the dedicated
// "pop-grouping" stream keyed by round, leaving the classic path's
// "grouping" stream untouched.
func (t *Trainer) mountCohort(binds []schemes.SlotBinding) {
	env := t.env
	t.binds = binds
	for i := range binds {
		b := &binds[i]
		t.mounted[b.Slot] = float64(env.Train[b.Shard].Len())
	}
	k := len(binds)
	m := t.cfg.Groups
	if m > k {
		m = k
	}
	t.popCaps = t.popCaps[:0]
	for i := range binds {
		// Effective capacities: the population applied each member's
		// device-profile speed to its slot before returning bindings, so
		// compute-balanced grouping sees what this round's devices can do.
		t.popCaps = append(t.popCaps, env.Fleet.Clients[binds[i].Slot].FLOPS)
	}
	t.groups = partition.Groups(k, m, t.cfg.Strategy, t.popCaps, env.Rng("pop-grouping", t.round))
}

// availableGroups applies per-round client dropout, returning the
// surviving members of each group (same outer length as t.groups; a
// fully dropped group has an empty inner slice) plus each group's
// aggregation weight: the samples mounted on its survivors' slots.
func (t *Trainer) availableGroups() ([][]int, []float64) {
	groups := t.groups
	if t.cfg.DropoutProb > 0 {
		rng := t.env.Rng("dropout", t.round)
		groups = make([][]int, len(t.groups))
		for g, members := range t.groups {
			for _, ci := range members {
				if rng.Float64() >= t.cfg.DropoutProb {
					groups[g] = append(groups[g], ci)
				}
			}
		}
	}
	t.weights = t.weights[:0]
	for _, members := range groups {
		w := 0.0
		for _, ci := range members {
			w += t.mounted[ci]
		}
		t.weights = append(t.weights, w)
	}
	return groups, t.weights
}

// Round implements schemes.Trainer: one full distribute/train/aggregate
// cycle. Cancellation is honoured between client turns; a cancelled
// round returns ctx.Err() and leaves the trainer unusable (resume from
// the last checkpoint instead).
func (t *Trainer) Round(ctx context.Context) (*simnet.Ledger, error) {
	t.chains = t.chains[:0]
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := t.env
	env.Channel.AdvanceRound() // new fading stream + client mobility
	t.round++
	if env.Pop != nil {
		binds, err := env.Pop.BeginRound(t.round)
		if err != nil {
			return nil, err
		}
		if len(binds) == 0 {
			// Nobody available: the round is a no-op, like a full dropout.
			return &simnet.Ledger{}, nil
		}
		t.mountCohort(binds)
	}
	groups, weights := t.availableGroups()

	// Indices of groups with at least one available client this round.
	live := t.live[:0]
	maxLen := 0
	for g, members := range groups {
		if len(members) > 0 {
			live = append(live, g)
			maxLen = max(maxLen, len(members))
		}
	}
	t.live = live
	if len(live) == 0 {
		// Every client dropped: the round is a no-op (the AP waits out a
		// timeout; we price nothing and keep the previous global model).
		return &simnet.Ledger{}, nil
	}

	// --- Step 2: model training within groups (parallel) --------------
	// One task per live group runs the group's whole turn chain: reset
	// the replica to the global halves (Step 1's model distribution),
	// train each member's StepsPerClient split steps in turn, recording
	// every batch size for pricing, and capture the result for Step 3.
	//
	// No bit depends on the worker count or the schedule. A task touches
	// only state its group owns — the replica, its optimizers, stepWS[g],
	// its capture slots, and the loaders of its members; groups partition
	// the cohort, so every slot belongs to one group. Restore reads the
	// global snapshots, which nothing writes before aggregation. A
	// population member's loader is re-pointed at its shard and seed
	// right before its turn, so a dropped member's loader is left alone
	// in a round it does not train and re-pointed before any later use
	// (population loaders carry no checkpointed state: ReplayedLoaders).
	// Nothing in training reads the channel or the allocator, so pricing
	// below keeps every fading draw in its place.
	steps := env.Hyper.StepsPerClient
	// FL's steps send nothing, so there is nothing to quantize.
	quantize := env.Hyper.QuantizeTransfers && !t.plan.local
	train := func(g int) {
		rep := t.replicas[g]
		t.globalClient.Restore(rep.Client)
		t.globalServer.Restore(rep.Server)
		ws := &t.stepWS[g]
		sizes := t.batchSizes[g][:0]
		for _, ci := range groups[g] {
			if env.Pop != nil {
				b := &t.binds[ci]
				t.loaders[ci].Reset(env.Train[b.Shard], b.LoaderSeed)
			}
			if ctx.Err() != nil {
				return
			}
			for s := 0; s < steps; s++ {
				t.loaders[ci].NextInto(&ws.Batch)
				ws.SplitStep(rep, t.clientOpts[g], t.serverOpts[g], ws.Batch, quantize)
				sizes = append(sizes, len(ws.Batch.Y))
			}
		}
		t.batchSizes[g] = sizes
		if !t.plan.chain {
			t.capClient[g].CaptureFrom(rep.Client)
			t.capServer[g].CaptureFrom(rep.Server)
		}
	}
	parallel.For(len(live), 1, func(lo, hi int) {
		for _, g := range live[lo:hi] {
			train(g)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Latency pricing draws fast-fading samples from the shared channel
	// RNG, so it runs serially after the join, in (position, group)
	// order — the exact draw sequence of the paper's schedule, where the
	// groups training their p-th client share the spectrum.

	// --- Step 1, priced: model distribution ----------------------------
	// The first available client of each group downloads the client-side
	// model; the downloads are concurrent and share the downlink budget.
	// A chain has nothing to download: its model is already with the
	// first client. Under FL the client half is the whole model, and its
	// download and return are the round's only transfers: FL's Downlink
	// and Uplink.
	handOff, giveBack := simnet.Relay, simnet.Relay
	if t.plan.local {
		handOff, giveBack = simnet.Downlink, simnet.Uplink
	}
	leds := make([]*simnet.Ledger, len(live))
	firstClients := make([]int, len(live))
	t.chains = slices.Grow(t.chains, len(live))[:len(live)]
	t.turns = slices.Grow(t.turns, len(live))[:len(live)]
	for li, g := range live {
		leds[li] = &simnet.Ledger{}
		leds[li].Record(&t.chains[li])
		t.turns[li] = t.turns[li][:0]
		firstClients[li] = groups[g][0]
	}
	var distAlloc []float64
	distribute := func(li int) {
		schemes.Charge(env, simnet.Task{Kind: simnet.TaskDownlink, Bytes: t.replicas[live[li]].ClientParamBytes(),
			Client: firstClients[li], Component: handOff}, 0, distAlloc[li], leds[li])
	}
	if !t.plan.chain {
		distAlloc = env.Alloc.Allocate(env.Channel, firstClients, env.Channel.DownlinkHz(), false)
		if !t.plan.distributionInTurn {
			for li := range live {
				distribute(li)
			}
		}
	}

	var upAlloc, downAlloc []float64
	if t.plan.chain {
		// The sole active client takes the full budget.
		upAlloc, downAlloc = []float64{env.Channel.UplinkHz()}, []float64{env.Channel.DownlinkHz()}
	}
	active := make([]int, 0, len(live))
	activeClients := make([]int, 0, len(live))
	for pos := 0; pos < maxLen; pos++ {
		// Groups still training at this position contend for spectrum.
		active, activeClients = active[:0], activeClients[:0]
		for li, g := range live {
			if pos < len(groups[g]) {
				active = append(active, li)
				activeClients = append(activeClients, groups[g][pos])
			}
		}
		if !t.plan.chain {
			upAlloc = env.Alloc.Allocate(env.Channel, activeClients, env.Channel.UplinkHz(), true)
			downAlloc = env.Alloc.Allocate(env.Channel, activeClients, env.Channel.DownlinkHz(), false)
		}
		for ai, li := range active {
			g, ci, led := live[li], activeClients[ai], leds[li]
			rep := t.replicas[g]
			if pos == 0 && t.plan.distributionInTurn {
				distribute(li) // every live group is active at position 0
			}
			t.turns[li] = append(t.turns[li], len(t.chains[li]))
			if t.cfg.Pipelined {
				if err := schemes.TurnLatency(env, rep, ci, env.Hyper.Batch, steps,
					upAlloc[ai], downAlloc[ai], led); err != nil {
					return nil, err
				}
			} else {
				for _, bn := range t.batchSizes[g][pos*steps : (pos+1)*steps] {
					if t.plan.local { // the loss is on the client: no per-step transfers
						schemes.Charge(env, schemes.StepTasks(env, rep, ci, bn)[0], 0, 0, led)
					} else {
						schemes.StepLatency(env, rep, ci, bn, upAlloc[ai], downAlloc[ai], led)
					}
				}
			}
			// Model sharing: relay to the next client in the group — a
			// chain wraps to the round's first — or return the client
			// model to the AP after the last client.
			switch {
			case pos+1 < len(groups[g]):
				schemes.RelayLatency(env, rep, ci, groups[g][pos+1], upAlloc[ai], downAlloc[ai], led)
			case t.plan.chain:
				schemes.RelayLatency(env, rep, ci, groups[g][0], upAlloc[ai], downAlloc[ai], led)
			default:
				schemes.Charge(env, simnet.Task{Kind: simnet.TaskUplink, Bytes: rep.ClientParamBytes(),
					Client: ci, Component: giveBack}, upAlloc[ai], 0, led)
			}
		}
	}

	// --- Step 3: aggregation among groups ------------------------------
	round := simnet.MaxOf(leds)
	joined := round.Total()
	if t.plan.chain {
		// Nothing to average and nothing to price: the trained model is
		// the global model.
		t.globalClient.CaptureFrom(t.replicas[live[0]].Client)
		t.globalServer.CaptureFrom(t.replicas[live[0]].Server)
	} else {
		t.aggClient = t.aggClient[:0]
		t.aggServer = t.aggServer[:0]
		t.aggW = t.aggW[:0]
		for _, g := range live {
			t.aggClient = append(t.aggClient, t.capClient[g])
			t.aggServer = append(t.aggServer, t.capServer[g])
			t.aggW = append(t.aggW, weights[g])
		}
		agg.FedAvgInto(&t.globalClient, t.aggClient, t.aggW)
		agg.FedAvgInto(&t.globalServer, t.aggServer, t.aggW)
		// Aggregation prices onto the critical-path ledger after the
		// groups join, where the slowest group finished.
		round.Record(&t.tail)
		schemes.AggregationLatency(t.env, len(live),
			t.globalClient.ParamCount()+t.globalServer.ParamCount(), round)
	}

	if env.Trace != nil {
		lanes := make([]schemes.TraceLane, len(live), len(live)+1)
		for li, g := range live {
			lanes[li] = schemes.TraceLane{Name: "group " + strconv.Itoa(g), Chain: t.chains[li], Turns: t.turns[li]}
		}
		if !t.plan.chain {
			lanes = append(lanes, schemes.TraceLane{Name: "ap", At: joined, Chain: t.tail})
		}
		env.TraceRound(t.plan.scheme, t.round, lanes, round)
	}
	return round, nil
}

// Evaluate implements schemes.Trainer: test-set performance of the
// aggregated global model.
func (t *Trainer) Evaluate(ctx context.Context) (schemes.Eval, error) {
	t.globalClient.Restore(t.evalModel.Client)
	t.globalServer.Restore(t.evalModel.Server)
	return schemes.Evaluate(ctx, t.evalModel, t.env.Test, t.env.Arch.InShape)
}

// GlobalSnapshots returns copies of the current aggregated halves (for
// checkpointing or cross-scheme comparisons).
func (t *Trainer) GlobalSnapshots() (client, server model.Snapshot) {
	return t.globalClient.Clone(), t.globalServer.Clone()
}
