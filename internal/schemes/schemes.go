// Package schemes defines the environment and trainer contract shared by
// every distributed-learning scheme in the reproduction: the paper's
// GSFL together with the baselines it contains — SL and SplitFed as M=1
// and M=N, FL as M=N with the cut after the last layer (all four are
// registrations of internal/gsfl's one round engine) — and the
// genuinely different baseline CL (internal/schemes/cl).
//
// A scheme consumes an Env — the fleet, the wireless channel, the
// per-client datasets, the architecture and cut layer, and the training
// hyperparameters — and produces, per round, a simnet.Ledger pricing that
// round's critical-path latency: the simnet.Fold of the chains of tasks
// the round charged (Charge). The experiment harness turns sequences of
// (round, ledger, evaluation) into the paper's figures.
//
// Parallelism in the modelled system (GSFL's concurrent groups, FL's and
// SplitFed's concurrent clients) is priced as one chain per parallel
// lane and executed as real goroutines on the shared worker pool
// (internal/parallel): independent groups/clients train
// concurrently, while everything that consumes a shared RNG stream —
// notably wireless fading draws — runs serially in a fixed order. Every
// run is therefore exactly reproducible: results are bit-identical for
// any worker count, including 1.
package schemes

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gsfl/internal/data"
	"gsfl/internal/device"
	"gsfl/internal/loss"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/optim"
	"gsfl/internal/quantize"
	"gsfl/internal/simnet"
	"gsfl/internal/tensor"
	"gsfl/internal/wireless"
	"gsfl/obs"
)

// Hyper bundles the optimization hyperparameters shared by all schemes.
type Hyper struct {
	// Batch is the mini-batch size.
	Batch int
	// StepsPerClient is how many mini-batches each client trains per
	// round (one "local pass" in the paper's per-epoch description).
	StepsPerClient int
	// LR is the SGD learning rate.
	LR float64
	// Momentum is the SGD momentum coefficient (0 disables).
	Momentum float64
	// ClipNorm caps the global gradient norm (0 disables).
	ClipNorm float64
	// QuantizeTransfers, when true, quantizes the smashed data and the
	// cut-layer gradient to 8 bits for transfer (4x less traffic at a
	// small precision cost). Both the training numerics (the receiving
	// side sees the dequantized tensor) and the latency pricing (1 byte
	// per scalar) honour it.
	QuantizeTransfers bool
	// LRDecayFactor/LRDecayEvery, when both set, multiply the learning
	// rate by the factor every LRDecayEvery optimizer steps (per-model
	// step counts, matching how each half trains independently). Zero
	// values keep the rate constant.
	LRDecayFactor float64
	LRDecayEvery  int
}

// Validate reports configuration errors. Every float field must be a
// finite number in its range: NaN or ±Inf in any of them is an error,
// not a run that trains to a NaN loss.
func (h Hyper) Validate() error {
	if h.Batch <= 0 {
		return fmt.Errorf("schemes: batch %d must be positive", h.Batch)
	}
	if h.StepsPerClient <= 0 {
		return fmt.Errorf("schemes: steps per client %d must be positive", h.StepsPerClient)
	}
	if !(h.LR > 0 && h.LR <= math.MaxFloat64) {
		return fmt.Errorf("schemes: learning rate %v must be positive and finite", h.LR)
	}
	if !(h.Momentum >= 0 && h.Momentum < 1) {
		return fmt.Errorf("schemes: momentum %v outside [0,1)", h.Momentum)
	}
	if !(h.ClipNorm >= 0 && h.ClipNorm <= math.MaxFloat64) {
		return fmt.Errorf("schemes: clip norm %v must be finite and non-negative (0 disables)", h.ClipNorm)
	}
	if (h.LRDecayFactor != 0) != (h.LRDecayEvery != 0) {
		return fmt.Errorf("schemes: LR decay needs both factor (%v) and interval (%d)", h.LRDecayFactor, h.LRDecayEvery)
	}
	if !(h.LRDecayFactor >= 0 && h.LRDecayFactor <= 1) {
		return fmt.Errorf("schemes: LR decay factor %v outside [0,1]", h.LRDecayFactor)
	}
	if h.LRDecayEvery < 0 {
		return fmt.Errorf("schemes: LR decay interval %d negative", h.LRDecayEvery)
	}
	return nil
}

// Env is the complete simulated world a scheme trains in.
type Env struct {
	// Arch and Cut define the model and its client/server boundary.
	Arch model.Arch
	Cut  int
	// Fleet supplies compute capacities; Channel and Alloc supply
	// transfer times under shared bandwidth.
	Fleet   *device.Fleet
	Channel *wireless.Channel
	Alloc   wireless.Allocator
	// Train holds each client's private dataset (len == Fleet.N()).
	Train []data.Dataset
	// Test is the held-out evaluation set at the AP.
	Test data.Dataset
	// Hyper are the optimization hyperparameters.
	Hyper Hyper
	// Seed derives every RNG stream in the scheme (model init, loaders).
	Seed int64
	// Pop, when non-nil, is a client population behind the fleet's
	// physical slots: each round the cohort-based schemes (gsfl, fl,
	// sfl) call Pop.BeginRound and train only the returned slot
	// bindings instead of the fixed client list. Train then holds the
	// population's data shards (still len == Fleet.N(); members map to
	// shards via SlotBinding.Shard). Nil means the classic fixed-client
	// world — the paper's setting — with numerics untouched.
	Pop Cohort
	// Trace, when non-nil, receives execution spans for every round on
	// the virtual clock: one lane per parallel ledger (group or client),
	// phase spans for each latency-model contribution, and a round span
	// on the critical path. Nil (the default) is free: the schemes'
	// pricing paths pay one pointer check and allocate nothing.
	Trace *obs.Tracer
}

// SlotBinding mounts one sampled population member onto a physical
// client slot for the duration of a round. Bindings returned by a
// Cohort fill slots densely in order: binding i has Slot == i.
type SlotBinding struct {
	// Slot is the fleet/channel/loader index the member occupies.
	Slot int
	// Member is the population-wide member id (diagnostics only).
	Member int64
	// Shard indexes Env.Train: the member's data shard.
	Shard int
	// LoaderSeed seeds the slot loader's shuffle stream for this
	// participation; it advances with the member's participation
	// cursor, so a member that returns sees fresh batch orders.
	LoaderSeed int64
	// Speed is the member's device-profile multiplier; the cohort has
	// already applied it to the slot's fleet entry when the bindings
	// are returned.
	Speed float64
}

// Cohort is the per-round sampling interface a population exposes to
// the schemes. Implementations live above this package (gsfl/pop);
// schemes only consume bindings.
type Cohort interface {
	// BeginRound advances the population to the given 1-based round and
	// returns the sampled bindings. Rounds must be requested in
	// increasing order; skipping ahead (a resumed run) replays the
	// intermediate rounds internally so the availability and sampling
	// streams stay aligned with the original run. An empty slice means
	// no member was available; the round is a no-op.
	BeginRound(round int) ([]SlotBinding, error)
	// Identity is a stable description of the population's
	// configuration, folded into checkpoint env fingerprints so a
	// resume cannot silently continue under a different population.
	Identity() string
}

// Validate reports structural errors in the environment.
func (e *Env) Validate() error {
	if e.Fleet == nil || e.Channel == nil || e.Alloc == nil {
		return fmt.Errorf("schemes: env missing fleet/channel/allocator")
	}
	if len(e.Train) != e.Fleet.N() {
		return fmt.Errorf("schemes: %d client datasets for %d clients", len(e.Train), e.Fleet.N())
	}
	if e.Channel.N() != e.Fleet.N() {
		return fmt.Errorf("schemes: channel built for %d clients, fleet has %d", e.Channel.N(), e.Fleet.N())
	}
	if e.Test == nil || e.Test.Len() == 0 {
		return fmt.Errorf("schemes: missing test set")
	}
	for i, d := range e.Train {
		if d == nil || d.Len() == 0 {
			return fmt.Errorf("schemes: client %d has no data", i)
		}
	}
	return e.Hyper.Validate()
}

// NewOptimizer builds the scheme-standard SGD from the hyperparameters.
// It is the one constructor both execution substrates share: the
// optimizer-step sequence is part of the simulator-vs-TCP byte-identity
// contract.
func (h Hyper) NewOptimizer() *optim.SGD {
	opt := optim.NewSGDMomentum(h.LR, h.Momentum)
	opt.ClipNorm = h.ClipNorm
	if h.LRDecayEvery > 0 {
		opt.Schedule = optim.StepDecayLR(h.LR, h.LRDecayFactor, h.LRDecayEvery)
	}
	return opt
}

// NewOptimizer is e.Hyper.NewOptimizer (the name internal/bench calls).
func (e *Env) NewOptimizer() *optim.SGD { return e.Hyper.NewOptimizer() }

// DeriveSeed maps (seed, purpose, k) to the seed of the named RNG
// stream. It is the one definition both execution substrates share: the
// in-process schemes derive every stream through Env.Rng, and the real
// TCP deployment (internal/transport) derives its model-init and
// client-loader streams with the same function — which is what makes a
// fault-free TCP round byte-identical to the simulator at equal seeds.
func DeriveSeed(seed int64, purpose string, k int) int64 {
	h := seed
	for _, c := range purpose {
		h = h*131 + int64(c)
	}
	return h*1_000_003 + int64(k)
}

// Rng derives a deterministic RNG stream for a named purpose. Distinct
// (purpose, k) pairs get independent streams, so adding a consumer never
// perturbs existing ones.
func (e *Env) Rng(purpose string, k int) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(e.Seed, purpose, k)))
}

// Eval is one evaluation of a scheme's current global model on the
// env's held-out test set.
type Eval struct {
	// Loss is the mean test loss.
	Loss float64
	// Accuracy is the test accuracy in [0,1].
	Accuracy float64
}

// Trainer is one distributed-learning scheme mid-training. It is the
// contract the public run API (gsfl/sim) drives: rounds are cancellable
// through their context and report failures as errors, never panics.
type Trainer interface {
	// Name is the scheme's short identifier ("gsfl", "sl", "fl", "cl",
	// "sfl"), used as the curve label and the registry key.
	Name() string
	// Round executes one global training round and returns its
	// critical-path latency ledger. It honours ctx cancellation at
	// internal sequencing points; after a non-nil error (including
	// ctx.Err()) the trainer may hold partially updated state and must
	// not be driven further.
	Round(ctx context.Context) (*simnet.Ledger, error)
	// Evaluate returns the test-set performance of the scheme's current
	// global model. It does not mutate training state.
	Evaluate(ctx context.Context) (Eval, error)
}

// EvalChunk bounds evaluation batch sizes so test-set forward passes
// never allocate huge activations.
const EvalChunk = 256

// evalPool recycles the evaluation chunk buffers across Evaluate calls
// (batch-shaped temporaries with no owning workspace — exactly what
// tensor.Pool exists for).
var evalPool tensor.Pool

// Evaluate runs the split model over the test set in chunks and returns
// the mean loss and accuracy. It is the shared implementation behind
// every scheme's Evaluate; cancellation is honoured between chunks.
func Evaluate(ctx context.Context, m *model.SplitModel, test data.Dataset, inShape []int) (Eval, error) {
	n := test.Len()
	lossFn := loss.SoftmaxCrossEntropy{}
	totalLoss := 0.0
	correct := 0
	for lo := 0; lo < n; lo += EvalChunk {
		if err := ctx.Err(); err != nil {
			return Eval{}, err
		}
		hi := lo + EvalChunk
		if hi > n {
			hi = n
		}
		cnt := hi - lo
		shape := append([]int{cnt}, inShape...)
		x := evalPool.Get(shape...)
		y := make([]int, cnt)
		per := x.Size() / cnt
		for i := lo; i < hi; i++ {
			f, label := test.Sample(i)
			copy(x.Data[(i-lo)*per:(i-lo+1)*per], f)
			y[i-lo] = label
		}
		logits := m.Forward(x, false)
		l, _ := lossFn.Eval(logits, y)
		totalLoss += float64(l * float64(cnt))
		for i, p := range logits.ArgMaxRows() {
			if p == y[i] {
				correct++
			}
		}
		evalPool.Put(x)
	}
	return Eval{Loss: totalLoss / float64(n), Accuracy: float64(correct) / float64(n)}, nil
}

// StepWorkspace is the per-replica scratch state one training step
// needs beyond the layer-owned workspaces: the batch buffers drawn into
// by data.Loader.NextInto, the loss-gradient tensor, and the
// quantization round-trip buffers for each transfer direction. Each
// concurrently-training replica (a GSFL group, an SFL client, an FL
// client) owns exactly one, so steady-state steps allocate nothing and
// replicas never contend. The zero value is ready to use; buffers grow
// lazily on first step.
type StepWorkspace struct {
	// Batch is the reusable mini-batch destination for NextInto; its
	// contents are consumed within the step that drew them.
	Batch data.Batch

	lossGrad   tensor.Tensor
	qUp, qDown quantize.Buffer
}

// SplitStep runs one split-learning mini-batch: client-side forward,
// (conceptual) smashed-data upload, server-side forward + loss +
// backward, (conceptual) gradient download, client-side backward, and
// both optimizer steps. It returns the batch loss. Latency is priced
// separately by the calling scheme from StepTasks, keeping numerical
// training and time accounting decoupled.
//
// When quantizeTransfers is true, the smashed data and the returned
// gradient pass through an 8-bit quantization round trip, so the
// receiving side trains on exactly what the narrower wire would deliver.
func (ws *StepWorkspace) SplitStep(m *model.SplitModel, clientOpt, serverOpt optim.Optimizer, batch data.Batch, quantizeTransfers bool) float64 {
	smashed := m.Client.Forward(batch.X, true)
	serverIn := smashed
	if quantizeTransfers {
		serverIn = ws.qUp.RoundTrip(smashed)
	}
	logits := m.Server.Forward(serverIn, true)
	l := loss.SoftmaxCrossEntropy{}.EvalInto(logits, batch.Y, &ws.lossGrad)

	dSmashed := m.Server.Backward(&ws.lossGrad)
	if quantizeTransfers {
		dSmashed = ws.qDown.RoundTrip(dSmashed)
	}
	m.Client.BackwardParams(dSmashed)

	serverOpt.Step(m.Server.Params(), m.Server.Grads(), m.Server.DecayMask())
	clientOpt.Step(m.Client.Params(), m.Client.Grads(), m.Client.DecayMask())
	return l
}

// LocalStep runs one full-model mini-batch (forward, loss, backward,
// optimizer step) on net — the centralized update CL uses. It returns
// the batch loss.
func (ws *StepWorkspace) LocalStep(net *nn.Sequential, opt optim.Optimizer, batch data.Batch) float64 {
	logits := net.Forward(batch.X, true)
	l := loss.SoftmaxCrossEntropy{}.EvalInto(logits, batch.Y, &ws.lossGrad)
	net.BackwardParams(&ws.lossGrad)
	opt.Step(net.Params(), net.Grads(), net.DecayMask())
	return l
}

// SplitStep is the convenience form of StepWorkspace.SplitStep for
// callers outside the training hot path (tests, one-off probes); it
// allocates a throwaway workspace per call.
func SplitStep(m *model.SplitModel, clientOpt, serverOpt optim.Optimizer, batch data.Batch, quantizeTransfers bool) float64 {
	var ws StepWorkspace
	return ws.SplitStep(m, clientOpt, serverOpt, batch, quantizeTransfers)
}

// transferWidth returns the per-scalar wire width the env's precision
// setting implies.
func transferWidth(e *Env) int {
	if e.Hyper.QuantizeTransfers {
		return quantize.WireBytesPerScalar
	}
	return model.WireBytesPerScalar
}

// StepTasks returns one split mini-batch of client ci as its four
// tasks: client compute, smashed-data uplink, server compute, gradient
// downlink. Backward costs 2x forward FLOPs, so a step costs 3x forward.
func StepTasks(e *Env, m *model.SplitModel, ci, batchN int) [4]simnet.Task {
	b := int64(batchN)
	w := transferWidth(e)
	return [4]simnet.Task{
		{Kind: simnet.TaskCompute, Seconds: e.Fleet.Clients[ci].ComputeSeconds(3 * m.ClientFwdFLOPs() * b), Client: ci, Component: simnet.ClientCompute},
		{Kind: simnet.TaskUplink, Bytes: m.SmashedBytesWith(batchN, w), Client: ci, Component: simnet.Uplink},
		{Kind: simnet.TaskCompute, Seconds: e.Fleet.Server.ComputeSeconds(3 * m.ServerFwdFLOPs() * b), Client: ci, Component: simnet.ServerCompute},
		{Kind: simnet.TaskDownlink, Bytes: m.GradBytesWith(batchN, w), Client: ci, Component: simnet.Downlink},
	}
}

// Charge prices each task in order — a compute task at its own
// duration, a transfer at one Channel.TransferSeconds draw at the
// allocation for its direction — and appends it to chain with Charged
// set. It is the one path by which a round's chains are priced.
func Charge(e *Env, chain *[]simnet.Task, upHz, downHz float64, tasks ...simnet.Task) {
	for _, task := range tasks {
		task.Charged = price(e, task, upHz, downHz)
		*chain = append(*chain, task)
	}
}

// price is the analytic seconds of task, as Charge describes.
func price(e *Env, task simnet.Task, upHz, downHz float64) float64 {
	switch task.Kind {
	case simnet.TaskUplink:
		return e.Channel.TransferSeconds(task.Client, task.Bytes, upHz, true)
	case simnet.TaskDownlink:
		return e.Channel.TransferSeconds(task.Client, task.Bytes, downHz, false)
	}
	return task.Seconds
}

// ChargeTurn charges a whole pipelined client turn of `steps`
// mini-batches to chain (a non-pipelined turn is steps charges of
// StepTasks). With pipelining (the "parallel design" of the paper's
// reference [2]), the four stages — client compute, uplink, server
// compute, downlink — overlap across consecutive batches, so after a
// one-step warm-up the turn advances at the pace of its slowest stage:
//
//	turn = (t_client + t_up + t_srv + t_down) + (steps-1) * max(stages)
//
// The warm-up charges each stage once; the steady state is one task, the
// bottleneck scaled by steps-1 (back-to-back transfers by one client are
// one transfer of their summed bytes), priced from the warm-up's draw.
func ChargeTurn(e *Env, m *model.SplitModel, ci, batchN, steps int, upHz, downHz float64, chain *[]simnet.Task) error {
	if steps <= 0 {
		return fmt.Errorf("schemes: turn needs positive steps, got %d", steps)
	}
	tasks := StepTasks(e, m, ci, batchN)
	Charge(e, chain, upHz, downHz, tasks[:]...)
	warm := (*chain)[len(*chain)-len(tasks):]
	rest := warm[0]
	for _, task := range warm[1:] {
		if task.Charged > rest.Charged {
			rest = task
		}
	}
	rest.Seconds *= float64(steps - 1)
	rest.Bytes *= int64(steps - 1)
	rest.Charged *= float64(steps - 1)
	*chain = append(*chain, rest)
	return nil
}

// RelayTasks hands the client-side model from client `from` to client
// `to` through the AP: an uplink transfer then a downlink transfer of
// the client-model parameters.
func RelayTasks(m *model.SplitModel, from, to int) [2]simnet.Task {
	bytes := m.ClientParamBytes()
	return [2]simnet.Task{
		{Kind: simnet.TaskUplink, Bytes: bytes, Client: from, Component: simnet.Relay},
		{Kind: simnet.TaskDownlink, Bytes: bytes, Client: to, Component: simnet.Relay},
	}
}

// AggregationTask is FedAvg at the AP over nModels models of the given
// total parameter count: one add + one multiply per scalar per model on
// the edge server.
func AggregationTask(e *Env, nModels, paramCount int) simnet.Task {
	flops := int64(2) * int64(nModels) * int64(paramCount)
	return simnet.Task{Kind: simnet.TaskCompute, Seconds: e.Fleet.Server.ComputeSeconds(flops), Component: simnet.Aggregation}
}

// StepLatency adds the price of StepTasks to led, task by task as Charge
// prices them. internal/bench's price_turn probe is its one caller; the
// round engine charges chains.
func StepLatency(e *Env, m *model.SplitModel, ci, batchN int, upHz, downHz float64, led *simnet.Ledger) {
	for _, task := range StepTasks(e, m, ci, batchN) {
		led.Add(task.Component, price(e, task, upHz, downHz))
	}
}

// RelayLatency adds the price of RelayTasks to led, task by task as
// Charge prices them. internal/bench's price_turn probe is its one
// caller; the round engine charges chains.
func RelayLatency(e *Env, m *model.SplitModel, from, to int, upHz, downHz float64, led *simnet.Ledger) {
	for _, task := range RelayTasks(m, from, to) {
		led.Add(task.Component, price(e, task, upHz, downHz))
	}
}
