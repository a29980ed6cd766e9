package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gsfl/env"
	"gsfl/internal/agg"
	"gsfl/internal/data"
	"gsfl/internal/loss"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/parallel"
	"gsfl/internal/quantize"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
	"gsfl/internal/tensor"
	"gsfl/obs"
	"gsfl/pop"
	"gsfl/sim"
	"gsfl/sweep"
)

// cost is one probe's unit cost per call.
type cost struct{ ns, allocs, bytes float64 }

// prober collects the per-layer metrics of the probes child.
type prober struct {
	tracer *obs.Tracer // what the obs.* probes hand to the hooks
	lane   *obs.Track  // one span per probe
	quick  bool
	out    map[string]Metric
	err    error // first error a probe body hit
}

// n is a probe's repeat count: a tenth of it under -quick, where only
// the harness is being tested.
func (pr *prober) n(count int) int {
	if pr.quick {
		return (count + 9) / 10
	}
	return count
}

// try keeps a probe body's first error; probes checks it between steps.
func (pr *prober) try(err error) {
	if pr.err == nil {
		pr.err = err
	}
}

func (pr *prober) set(name string, v float64, unit string) { pr.out[name] = Metric{v, unit} }

func (pr *prober) ns(name string) float64 { return pr.out[name].Value }

// measure calls f warm times untimed, then iters×reps times: every
// sample is the mean of reps back-to-back calls (reps > 1 for calls too
// short for the clock), ns is the median sample, and allocs/bytes are
// heap traffic per call over all timed calls. One span on the probes
// lane covers the lot.
func (pr *prober) measure(name string, warm, iters, reps int, f func()) cost {
	sp := pr.lane.BeginWall(name, "probe")
	defer sp.End()
	for i := 0; i < warm; i++ {
		f()
	}
	iters = pr.n(iters)
	samples := make([]float64, iters)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range samples {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	runtime.ReadMemStats(&m1)
	n := float64(iters * reps)
	return cost{median(samples), float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n}
}

// record is measure with the median stored as the metric name.ns.
func (pr *prober) record(name string, warm, iters, reps int, f func()) cost {
	c := pr.measure(name, warm, iters, reps, f)
	pr.set(name+".ns", c.ns, "ns")
	return c
}

// probes measures every layer's unit cost. Shapes are sim_paper's
// (paper-shaped spec, batch 16) at workers=1 unless a probe says
// otherwise, so a kernel number and the round it is a share of were
// taken on the same operands.
func probes(seed int64, scratch string, tracer *obs.Tracer, quick bool) (map[string]Metric, error) {
	pr := &prober{tracer: tracer, lane: tracer.Lane("bench", "probes"), quick: quick, out: map[string]Metric{}}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	parallel.SetWorkers(1)
	for _, step := range []func() error{
		pr.tensorProbes,
		func() error { return pr.modelProbes(seed) },
		func() error { return pr.roundProbes(seed) },
		func() error { return pr.simProbes(seed, scratch) },
		func() error { return pr.gridProbes(seed, scratch) },
		func() error { return pr.transportProbes(seed) },
		func() error { return pr.popProbes(seed) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
		if pr.err != nil {
			return nil, pr.err
		}
	}
	return pr.out, nil
}

func (pr *prober) tensorProbes() error {
	rng := rand.New(rand.NewSource(1))
	a := tensor.New(256, 256).RandNormal(rng, 0, 1)
	b := tensor.New(256, 256).RandNormal(rng, 0, 1)
	dst := tensor.New(256, 256)
	c := pr.record("tensor.matmul_256", 3, 30, 1, func() { tensor.MatMulInto(dst, a, b) })
	pr.set("tensor.matmul_256.allocs", c.allocs, "count")
	release, err := tensor.AcquireNumericMode("fast")
	if err != nil {
		return err
	}
	pr.record("tensor.matmul_256_fast", 3, 30, 1, func() { tensor.MatMulInto(dst, a, b) })
	release()

	// conv-1 of gtsrb-cnn at 16 px: 3→8 channels, 3×3, pad 1; forward
	// and weight-gradient implicit GEMMs over a batch of 16 images.
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const batch, outC = 16, 8
	k, spatial := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	w := tensor.New(outC, k).RandNormal(rng, 0, 1)
	imgs := tensor.New(batch, g.ImageSize()).RandNormal(rng, 0, 1)
	dy := tensor.New(outC, spatial).RandNormal(rng, 0, 1)
	out, dw := tensor.New(outC, spatial), tensor.New(outC, k)
	pr.record("tensor.conv_gemm", 3, 30, 1, func() {
		for i := 0; i < batch; i++ {
			tensor.ConvMatMulInto(out, w, imgs.Row(i), g)
			tensor.ConvMatMulTransBInto(dw, dy, imgs.Row(i), g)
		}
	})

	// 2·8·16·8 = 2048 FLOPs: under the 8192-FLOP floor, so this is the
	// scalar row-partitioned fallback, not the packed engine.
	sa := tensor.New(8, 16).RandNormal(rng, 0, 1)
	sb := tensor.New(16, 8).RandNormal(rng, 0, 1)
	sd := tensor.New(8, 8)
	pr.record("tensor.gemm_below_floor", 10, 30, 200, func() { tensor.MatMulInto(sd, sa, sb) })
	return nil
}

// layerKind maps an nn layer name onto the four rows of the table.
func layerKind(name string) string {
	switch {
	case strings.HasPrefix(name, "conv"):
		return "nn.conv"
	case strings.HasPrefix(name, "dense"):
		return "nn.dense"
	case strings.Contains(name, "pool"):
		return "nn.pool"
	}
	return "nn.act" // relu, flatten, and any other parameter-free map
}

func (pr *prober) modelProbes(seed int64) error {
	spec := paperSpec(seed)
	world, err := env.Build(spec)
	if err != nil {
		return err
	}
	m := world.Arch.NewSplit(world.Rng("init", 0), world.Cut)
	loader := data.NewLoader(world.Train[0], world.Hyper.Batch, world.Arch.InShape, world.Rng("loader", 0))
	var ws schemes.StepWorkspace
	loader.NextInto(&ws.Batch)
	copt, sopt := world.NewOptimizer(), world.NewOptimizer()

	// Forward + ZeroGrads + Backward of every layer on the activations
	// the layer before it produced, summed by kind.
	kinds := map[string]float64{"nn.conv": 0, "nn.dense": 0, "nn.pool": 0, "nn.act": 0}
	x := ws.Batch.X
	for _, l := range append(append([]nn.Layer(nil), m.Client.Layers...), m.Server.Layers...) {
		l := l
		in := x
		dy := l.Forward(in, true).Clone()
		one := []nn.Layer{l}
		c := pr.measure("nn."+l.Name(), 3, 30, 1, func() {
			l.Forward(in, true)
			nn.ZeroGrads(one)
			l.Backward(dy)
		})
		kinds[layerKind(l.Name())] += c.ns
		x = l.Forward(in, true).Clone()
	}
	total := 0.0
	for kind, ns := range kinds {
		pr.set(kind+".ns", ns, "ns")
		total += ns
	}

	step := pr.record("schemes.split_step", 5, 40, 1, func() { ws.SplitStep(m, copt, sopt, ws.Batch, false) })
	pr.set("schemes.split_step.allocs", step.allocs, "count")
	pr.set("nn.share_of_split_step", shareOfParent(1, total, step.ns), "ratio")
	pr.record("schemes.split_step_quant", 5, 40, 1, func() { ws.SplitStep(m, copt, sopt, ws.Batch, true) })
	full, lopt := nn.NewSequential(world.Arch.Build(world.Rng("init", 1))...), world.NewOptimizer()
	pr.record("schemes.local_step", 5, 40, 1, func() { ws.LocalStep(full, lopt, ws.Batch) })
	ctx := context.Background()
	pr.record("schemes.evaluate", 1, 5, 1, func() {
		_, err := schemes.Evaluate(ctx, m, world.Test, world.Arch.InShape)
		pr.try(err)
	})
	up, down := world.Channel.UplinkHz()/float64(spec.Groups), world.Channel.DownlinkHz()/float64(spec.Groups)
	pr.record("schemes.price_turn", 10, 30, 100, func() {
		var led simnet.Ledger
		schemes.StepLatency(world, m, 0, world.Hyper.Batch, up, down, &led)
		schemes.RelayLatency(world, m, 0, 1, up, down, &led)
	})

	smashed := m.Client.Forward(ws.Batch.X, true).Clone()
	var qbuf quantize.Buffer
	pr.record("quantize.roundtrip", 5, 30, 10, func() { qbuf.RoundTrip(smashed) })
	pr.record("optim.sgd_step", 5, 30, 10, func() {
		sopt.Step(m.Server.Params(), m.Server.Grads(), m.Server.DecayMask())
	})
	logits := m.Server.Forward(smashed, true).Clone()
	var grad tensor.Tensor
	pr.record("loss.softmax_ce", 5, 30, 50, func() { loss.SoftmaxCrossEntropy{}.EvalInto(logits, ws.Batch.Y, &grad) })
	var b data.Batch
	pr.record("data.loader_next", 5, 30, 50, func() { loader.NextInto(&b) })

	snaps := make([]model.Snapshot, spec.Groups)
	weights := make([]float64, spec.Groups)
	for i := range snaps {
		snaps[i] = model.TakeSnapshot(m.Server)
		weights[i] = float64(i + 1)
	}
	var avg model.Snapshot
	pr.record("agg.fedavg", 3, 30, 1, func() { agg.FedAvgInto(&avg, snaps, weights) })
	var sn model.Snapshot
	pr.record("model.snapshot", 3, 30, 10, func() {
		sn.CaptureFrom(m.Server)
		sn.Restore(m.Server)
	})

	pr.record("env.build", 0, 3, 1, func() {
		_, err := env.Build(spec)
		pr.try(err)
	})
	test := env.TestSpec()
	test.Seed = seed
	pr.record("env.build_test", 1, 5, 1, func() {
		_, err := env.Build(test)
		pr.try(err)
	})
	return nil
}

// rounds times direct Trainer.Round calls of one scheme.
func (pr *prober) rounds(name string, tr sim.Trainer, warm, iters int) cost {
	ctx := context.Background()
	return pr.record(name, warm, iters, 1, func() {
		_, err := tr.Round(ctx)
		pr.try(err)
	})
}

func (pr *prober) roundProbes(seed int64) error {
	spec := paperSpec(seed)
	tr, _, err := newGSFL(spec)
	if err != nil {
		return err
	}
	c := pr.rounds("gsfl.round", tr, 2, 4)
	pr.set("gsfl.round.allocs", c.allocs, "count")
	pr.set("gsfl.round.bytes", c.bytes, "bytes")
	steps := float64(spec.Clients * spec.Hyper.StepsPerClient)
	pr.set("schemes.split_step.share_of_round", shareOfParent(steps, pr.ns("schemes.split_step.ns"), c.ns), "ratio")

	test := env.TestSpec()
	test.Seed = seed
	opts, err := test.SchemeOptions()
	if err != nil {
		return err
	}
	for _, scheme := range []string{"gsfl", "sl", "sfl", "fl", "cl"} {
		world, err := env.Build(test)
		if err != nil {
			return err
		}
		btr, err := sim.New(scheme, world, opts)
		if err != nil {
			return err
		}
		name := scheme + ".round"
		if scheme == "gsfl" {
			name = "gsfl.round_test"
		}
		pr.rounds(name, btr, 2, 10)
	}

	// sim_paper's own op: the same trainer through sim.Runner at the
	// pinned worker count, tracing off and then on.
	sp := pr.lane.BeginWall("gsfl.round_w2", "probe")
	defer sp.End()
	plain, err := runnerRounds(tr, pr.n(5), nil)
	if err != nil {
		return err
	}
	before := pr.tracer.EventCount()
	traced, err := runnerRounds(tr, len(plain), pr.tracer)
	if err != nil {
		return err
	}
	pr.set("gsfl.round_w2.ns", median(plain)*1e6, "ns")
	pr.set("parallel.scaling_eff", c.ns/(pinnedProcs*median(plain)*1e6), "ratio")
	pr.set("obs.trace_overhead.sim_paper", median(traced)/median(plain)-1, "ratio")
	pr.set("obs.events_per_round", float64(pr.tracer.EventCount()-before)/float64(len(traced)+2), "count")
	return nil
}

// runnerRounds drives tr through sim.Runner at the pinned worker count
// for n+2 rounds and returns the host milliseconds of the n in the
// middle: the first is warm-up, the last also evaluates.
func runnerRounds(tr sim.Trainer, n int, tracer *obs.Tracer) ([]float64, error) {
	var ms []float64
	_, err := sim.NewRunner(tr, sim.WithRounds(n+2), sim.WithEvalEvery(n+2), sim.WithWorkers(pinnedProcs), sim.WithTracer(tracer),
		sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
			if e.Round > 1 && e.Eval == nil {
				ms = append(ms, e.HostSeconds*1e3)
			}
		}))).Run(context.Background())
	return ms, err
}

func (pr *prober) simProbes(seed int64, scratch string) error {
	spec := env.TestSpec()
	spec.Seed = seed
	ctx := context.Background()
	const rounds, evalEvery = 40, 5

	// The same rounds and evaluations through the Runner and as bare
	// Trainer calls, alternated; what the Runner adds is its overhead.
	viaRunner := func() (time.Duration, error) {
		tr, _, err := newGSFL(spec)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = sim.NewRunner(tr, sim.WithRounds(rounds), sim.WithEvalEvery(evalEvery)).Run(ctx)
		return time.Since(t0), err
	}
	direct := func() (time.Duration, error) {
		tr, _, err := newGSFL(spec)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for r := 1; r <= rounds; r++ {
			if _, err := tr.Round(ctx); err != nil {
				return 0, err
			}
			if r%evalEvery == 0 {
				if _, err := tr.Evaluate(ctx); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}
	sp := pr.lane.BeginWall("sim.runner", "probe")
	var runnerS, directS []float64
	for i := 0; i < pr.n(5); i++ {
		for _, side := range []struct {
			run func() (time.Duration, error)
			out *[]float64
		}{{viaRunner, &runnerS}, {direct, &directS}} {
			d, err := side.run()
			if err != nil {
				return err
			}
			*side.out = append(*side.out, d.Seconds())
		}
	}
	sp.End()
	pr.set("sim.runner_overhead_share", 1-median(directS)/median(runnerS), "ratio")

	// A checkpoint's cost is the median round with one minus the median
	// round without: the Runner is the only public way to write one.
	roundMs := func(opts ...sim.RunOption) (float64, error) {
		tr, _, err := newGSFL(spec)
		if err != nil {
			return 0, err
		}
		var ms []float64
		opts = append(opts, sim.WithRounds(rounds), sim.WithEvalEvery(rounds),
			sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) { ms = append(ms, e.HostSeconds*1e3) })))
		_, err = sim.NewRunner(tr, opts...).Run(ctx)
		return median(ms[:len(ms)-1]), err // the last round also evaluates
	}
	ckpt := filepath.Join(scratch, "probe.ckpt")
	with, err := roundMs(sim.WithCheckpointEvery(1), sim.WithCheckpointPath(ckpt))
	if err != nil {
		return err
	}
	without, err := roundMs()
	if err != nil {
		return err
	}
	pr.set("sim.checkpoint_save.ns", (with-without)*1e6, "ns")
	st, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	pr.set("sim.checkpoint.bytes", float64(st.Size()), "bytes")
	world, err := env.Build(spec)
	if err != nil {
		return err
	}
	pr.record("sim.resume", 1, 5, 1, func() {
		_, _, err := sim.PeekCheckpoint(ckpt)
		pr.try(err)
		_, err = sim.Resume(ckpt, world, sim.WithRounds(rounds+1))
		pr.try(err)
	})
	return nil
}

// probeJobs is the reduced grid the sweep and fleet probes share: one
// seed, one group count, every scheme, full precision and quantized.
const probeJobs = 10

func (pr *prober) gridProbes(seed int64, scratch string) error {
	jobs, err := gridJobs(seed, probeJobs)
	if err != nil {
		return err
	}
	sp := pr.lane.BeginWall("sweep.grid", "probe")
	base, err := schedule(jobs, filepath.Join(scratch, "jobs2"), pinnedProcs, 1, nil, nil)
	if err != nil {
		return err
	}
	noCkpt, err := schedule(jobs, filepath.Join(scratch, "nockpt"), pinnedProcs, 0, nil, nil)
	if err != nil {
		return err
	}
	serial, err := schedule(jobs, filepath.Join(scratch, "jobs1"), 1, 1, nil, nil)
	if err != nil {
		return err
	}
	traced, err := schedule(jobs, filepath.Join(scratch, "traced"), pinnedProcs, 1, pr.tracer, nil)
	if err != nil {
		return err
	}
	sp.End()
	busy := func(gr *gridRun) float64 {
		sum := 0.0
		for _, ms := range gr.jobMs {
			sum += ms
		}
		return sum / 1e3 / (pinnedProcs * gr.wall.Seconds())
	}
	pr.set("sweep.job.ns", median(base.jobMs)*1e6, "ns")
	pr.set("sweep.makespan.ns", float64(base.wall), "ns")
	pr.set("sweep.slot_busy_share", busy(base), "ratio")
	pr.set("sweep.ckpt_share", 1-float64(noCkpt.wall)/float64(base.wall), "ratio")
	pr.set("sweep.scaling_jobs2", float64(serial.wall)/float64(base.wall), "ratio")
	pr.set("obs.trace_overhead.sweep_grid", median(traced.jobMs)/median(base.jobMs)-1, "ratio")

	sp = pr.lane.BeginWall("fleet.grid", "probe")
	fl, counters, err := serve(jobs, filepath.Join(scratch, "fleet"), 1, nil, nil)
	if err != nil {
		return err
	}
	sp.End()
	pr.set("fleet.makespan.ns", float64(fl.wall), "ns")
	pr.set("fleet.overhead_share", 1-float64(base.wall)/float64(fl.wall), "ratio")
	pr.set("fleet.leases_granted", float64(fl.events["leased"]), "count")
	pr.set("fleet.checkpoint_uploads", float64(fl.events["progressed"]), "count")
	pr.set("fleet.checkpoint_upload_bytes", counters["gsfl_fleet_checkpoint_bytes_sum"], "bytes")
	pr.set("fleet.worker_idle_share", 1-busy(fl), "ratio")

	// Store unit costs, on a result the scheduler just produced.
	res, err := (&sweep.Scheduler{Jobs: 1, Workers: 1}).Run(context.Background(), jobs[:1], nil)
	if err != nil {
		return err
	}
	store, err := sweep.OpenStore(filepath.Join(scratch, "store"))
	if err != nil {
		return err
	}
	defer store.Close()
	n := 0
	var recorded []sweep.Job
	pr.record("sweep.store_record", 2, 20, 1, func() {
		r := res[0]
		r.Job.ID = fmt.Sprintf("%016x", n)
		n++
		recorded = append(recorded, r.Job)
		pr.try(store.Record(r))
	})
	progress := sweep.Progress{Round: 1, Components: map[string]float64{"client-compute": 1, "uplink": 2, "relay": 3}, TotalSeconds: 6}
	pr.record("sweep.store_progress", 2, 20, 1, func() {
		pr.try(store.SaveProgress(jobs[0], progress))
	})
	pr.record("sweep.compact", 1, 5, 1, func() {
		pr.try(store.Compact(recorded))
	})
	return nil
}

// scrape reads a Prometheus text page into name → value.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.String())
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		f := strings.Fields(ln)
		if len(f) != 2 || strings.HasPrefix(ln, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func (pr *prober) transportProbes(seed int64) error {
	// Pure transport: tcp_echo's fleet for a few rounds.
	warm, rounds := 3, pr.n(20)
	var ms []float64
	sp := pr.lane.BeginWall("transport.echo", "probe")
	rep, err := env.RunLoadGen(env.LoadGenConfig{
		Clients: echoClients, Groups: 6, Rounds: warm + rounds, StepsPerClient: 2, Batch: 8,
		Seed: seed, RoundDeadline: 30 * time.Second,
		OnRound: func(st env.RoundStats) { ms = append(ms, st.Duration.Seconds()*1e3) },
	})
	sp.End()
	if err != nil {
		return err
	}
	pr.set("transport.round.ns", median(ms[warm:])*1e6, "ns")
	pr.set("transport.bytes_per_round", float64(rep.BytesRead+rep.BytesWritten)/float64(warm+rounds), "bytes")
	for _, ph := range []string{"write-train", "read-smashed", "server-compute", "write-gradient", "read-return"} {
		pr.set("transport.phase."+ph+".p50_ms", rep.Phases[ph].P50MS, "ms")
	}

	// Transport under real compute: tcp_train's deployment for a few
	// rounds, frames counted exactly from the AP's own histograms.
	sp = pr.lane.BeginWall("transport.train", "probe")
	defer sp.End()
	d, err := deploy(paperSpec(seed), nil)
	if err != nil {
		return err
	}
	defer d.close()
	dt, err := deploy(paperSpec(seed), pr.tracer)
	if err != nil {
		return err
	}
	defer dt.close()
	frames := func() float64 {
		var buf bytes.Buffer
		if err := d.ap.Metrics().WriteText(&buf); err != nil {
			return 0
		}
		m := parseMetrics(buf.String())
		return m["gsfl_frame_read_bytes_count"] + m["gsfl_frame_write_bytes_count"]
	}
	// The simulator's round, the deployment's and the traced deployment's
	// alternate, so all three medians see the same minutes of a box whose
	// speed drifts.
	tr, _, err := newGSFL(paperSpec(seed))
	if err != nil {
		return err
	}
	ctx := context.Background()
	trainRounds := pr.n(5)
	var simMs, tcpMs, tracedMs []float64
	var before float64
	for r := 0; r <= trainRounds; r++ {
		if r == 1 { // round 0 is warm-up
			simMs, tcpMs, tracedMs, before = nil, nil, nil, frames()
		}
		t0 := time.Now()
		if _, err := tr.Round(ctx); err != nil {
			return err
		}
		simMs = append(simMs, time.Since(t0).Seconds()*1e3)
		for _, side := range []struct {
			d   *deployment
			out *[]float64
		}{{d, &tcpMs}, {dt, &tracedMs}} {
			dur, _, err := side.d.round()
			if err != nil {
				return err
			}
			*side.out = append(*side.out, dur.Seconds()*1e3)
		}
	}
	pr.set("transport.frames_per_round", (frames()-before)/float64(trainRounds), "count")
	pr.set("transport.train_round.ns", median(tcpMs)*1e6, "ns")
	pr.set("transport.over_sim_share", 1-median(simMs)/median(tcpMs), "ratio")
	pr.set("obs.trace_overhead.tcp_train", median(tracedMs)/median(tcpMs)-1, "ratio")
	return nil
}

func (pr *prober) popProbes(seed int64) error {
	spec := popSpec(seed)
	var world *env.Env
	pr.record("pop.build", 0, 2, 1, func() {
		var err error
		world, err = env.Build(spec)
		pr.try(err)
	})
	if pr.err != nil {
		return pr.err
	}
	p, ok := world.Pop.(*pop.Population)
	if !ok {
		return fmt.Errorf("the population spec attached no population")
	}
	pr.set("pop.memory_bytes", float64(p.MemoryBytes()), "bytes")
	round := 0
	c := pr.record("pop.begin_round", 3, 20, 1, func() {
		round++
		_, err := p.BeginRound(round)
		pr.try(err)
	})
	pr.set("pop.begin_round.allocs", c.allocs, "count")
	tr, _, err := newGSFL(spec)
	if err != nil {
		return err
	}
	r := pr.rounds("pop.round", tr, 1, 4)
	pr.set("pop.begin_round.share_of_round", shareOfParent(1, c.ns, r.ns), "ratio")
	return nil
}
