package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsfl/env"
	"gsfl/fleet"
	"gsfl/obs"
	"gsfl/sim"
	"gsfl/sweep"
)

// pinnedProcs is the GOMAXPROCS and worker count every child runs
// with. The harness refuses to run on a smaller box instead of
// rescaling: a 1-CPU number is not comparable with a 2-CPU one.
const pinnedProcs = 2

// nominalSeconds is BENCHMARK.json's run_seconds: the -seconds value at
// which each workload runs the op count in its table row. Other values
// scale every op count by the same factor.
const nominalSeconds = 15

// minOps keeps at least minTail samples beyond the p90 however short a
// run is asked for; only -quick goes below it.
const minOps = 100

// workload is one row of the benchmark: a closed loop of ops driven by
// this process, one op at a time (grids: two at a time, the scheduler's
// own concurrency).
type workload struct {
	name string
	why  string
	op   string // "round" or "job"
	ops  int    // timed ops at nominalSeconds
	warm int    // untimed warm-up ops, part of set-up
	run  func(rc *runCtx) (*pass, error)
}

var workloads = []workload{
	{"sim_paper", "compute-bound reference: 120 split steps are ~100% of a round, so tensor/nn/schemes/gsfl do all the work and sweep, transport, pop and fleet none",
		"round", 100, 2, runSimPaper},
	{"tcp_train", "the same arithmetic as sim_paper over loopback TCP with real client compute: the difference per round is what codec, sockets and AP turn scheduling cost",
		"round", 100, 2, runTCPTrain},
	{"tcp_echo", "600 echo clients do no training, so framing, relay, deadlines and aggregation are all of the work: a codec or AP change shows here and a kernel change must not",
		"round", 250, 2, runTCPEcho},
	{"pop_1m", "1M-member population behind 200 slots with a tiny MLP, so pop.BeginRound and cohort mounting dominate; the only workload whose setup_s and peak_rss_mb are set by population records",
		"round", 167, 2, runPop1M},
	{"sweep_grid", "100 short jobs over all five schemes and the quantized path through the scheduler and store: env.Build, per-round checkpoints, fsynced manifest appends and compaction carry the cost",
		"job", 100, 5, runSweepGrid},
	{"fleet_grid", "the same jobs through the fleet coordinator and two loopback workers: fleet_grid minus sweep_grid is the lease, progress and checkpoint-upload plane's overhead",
		"job", 100, 5, runFleetGrid},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opsFor scales a workload's op count to the requested measuring time.
func (w workload) opsFor(seconds int, quick bool) int {
	n := int(math.Round(float64(w.ops) * float64(seconds) / nominalSeconds))
	if quick {
		if n /= 10; n < 1 {
			n = 1
		}
		return n
	}
	if n < minOps {
		n = minOps
	}
	return n
}

// runCtx is what one pass of a workload is asked to do.
type runCtx struct {
	seed      int64
	ops       int
	warm      int
	setupOnly bool        // stop when set-up (warm-up included) is done
	tracer    *obs.Tracer // nil = tracing off
	lane      *obs.Track  // the benchmark's own spans; nil-safe
	scratch   string      // private directory inside the checkout
	start     time.Time   // set-up is timed from here
	meter     *hostMeter  // the host's speed, from endSetup to endTimed
}

// pass is the outcome of one pass of a workload.
type pass struct {
	SetupS    float64           `json:"setup_s"`
	WallS     float64           `json:"wall_s"`
	KernelMs  float64           `json:"kernel_ms"` // median calibration kernel over the timed interval
	OpMs      []float64         `json:"op_ms"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    map[string]string `json:"checks"` // exact output values: golden and cross-workload comparisons
	Errors    []string          `json:"errors"` // failed output checks
}

func (p *pass) failf(format string, args ...any) {
	p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
}

func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// endSetup closes the set-up interval; the first timed op starts now.
func (rc *runCtx) endSetup(p *pass, sp obs.WallSpan) time.Time {
	sp.End()
	p.SetupS = time.Since(rc.start).Seconds()
	if !rc.setupOnly {
		rc.meter = startHostMeter()
	}
	return time.Now()
}

// endTimed closes the timed interval, which took wall.
func (rc *runCtx) endTimed(p *pass, wall time.Duration) {
	p.WallS = wall.Seconds()
	p.KernelMs = rc.meter.stopMedian()
}

func (rc *runCtx) opSpan(name string, d time.Duration) {
	rc.lane.WallSpanAt(name, "op", time.Now().Add(-d), d)
}

// paperSpec is the paper-shaped world: N=30 clients, M=6 groups,
// gtsrb-cnn cut at 3, batch 16, 4 steps and 200 samples per client, at
// 16 px so a round is ~0.2 s on two cores.
func paperSpec(seed int64) env.Spec {
	s := env.PaperSpec()
	s.ImageSize = 16
	s.Seed = seed
	return s
}

// popSpec is internal/popbench's deployment-scale world.
func popSpec(seed int64) env.Spec {
	s := env.TestSpec()
	s.Clients = 200
	s.Groups = 20
	s.Arch = "mlp"
	s.ImageSize = 8
	s.TrainPerClient = 32
	s.TestPerClass = 2
	s.Hyper.Batch = 8
	s.Hyper.StepsPerClient = 1
	s.Device = env.DefaultDeviceConfig(s.Clients)
	s.Population = 1_000_000
	s.SampleFraction = 0.0002 // cohort 200 = every slot
	s.AvailTrace = "onoff"
	s.DeviceProfileMix = "low-end:0.25,baseline:0.5,high-end:0.25"
	s.Seed = seed
	return s
}

func newGSFL(spec env.Spec) (*sim.SchemeTrainer, *env.Env, error) {
	world, err := env.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	opts, err := spec.SchemeOptions()
	if err != nil {
		return nil, nil, err
	}
	tr, err := sim.New("gsfl", world, opts)
	return tr, world, err
}

// checkLearning is the seed-independent oracle every round workload
// shares: all losses finite, the final one below the untrained model's.
func checkLearning(p *pass, first, final float64) {
	if math.IsNaN(first) || math.IsInf(first, 0) || math.IsNaN(final) || math.IsInf(final, 0) {
		p.failf("loss not finite: first %v final %v", first, final)
	} else if final >= first {
		p.failf("final loss %v not below the untrained loss %v", final, first)
	}
}

func runSimPaper(rc *runCtx) (*pass, error) { return runSim(rc, paperSpec(rc.seed), 20) }

// pop_1m evaluates at the end only: with a 9 ms eval the round would
// otherwise be measuring the test set, not the population.
func runPop1M(rc *runCtx) (*pass, error) { return runSim(rc, popSpec(rc.seed), rc.warm+rc.ops) }

func runSim(rc *runCtx, spec env.Spec, evalEvery int) (*pass, error) {
	p := &pass{Checks: map[string]string{}}
	sp := rc.lane.BeginWall("setup", "setup")
	tr, _, err := newGSFL(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := tr.Evaluate(ctx)
	if err != nil {
		return nil, err
	}
	var timed time.Time
	virtual := 0.0
	observer := sim.ObserverFunc(func(e sim.RoundEvent) {
		virtual = e.ElapsedSeconds
		switch {
		case e.Round == rc.warm:
			timed = rc.endSetup(p, sp)
			if rc.setupOnly {
				cancel()
			}
		case e.Round > rc.warm:
			p.OpMs = append(p.OpMs, e.HostSeconds*1e3)
			rc.opSpan("round", time.Duration(e.HostSeconds*float64(time.Second)))
			p.Attempted++
			if !(e.RoundSeconds > 0) {
				p.Failed++ // an empty ledger: no group trained this round
			}
		}
	})
	curve, err := sim.NewRunner(tr,
		sim.WithRounds(rc.warm+rc.ops), sim.WithEvalEvery(evalEvery), sim.WithWorkers(pinnedProcs),
		sim.WithObserver(observer), sim.WithTracer(rc.tracer)).Run(ctx)
	if rc.setupOnly && errors.Is(err, context.Canceled) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	rc.endTimed(p, time.Since(timed))
	last := curve.Points[len(curve.Points)-1]
	p.Checks["final_loss"] = exact(last.Loss)
	p.Checks["accuracy"] = exact(last.Accuracy)
	p.Checks["virtual_s"] = exact(virtual)
	for _, pt := range curve.Points {
		checkLearning(p, first.Loss, pt.Loss)
	}
	if !(virtual > 0) {
		p.failf("virtual elapsed %v not positive", virtual)
	}
	return p, nil
}

// grouped is the part of the gsfl trainer the deployment needs: the
// group assignment the simulator derived from the env seed.
type grouped interface{ Groups() [][]int }

// deployment is a loopback AP with one real client per shard of world.
type deployment struct {
	ap      *env.AP
	clients int
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
	once    sync.Once
	err     error // what close found, kept for repeated calls
}

func deploy(spec env.Spec, tracer *obs.Tracer) (*deployment, error) {
	tr, world, err := newGSFL(spec)
	if err != nil {
		return nil, err
	}
	g, ok := tr.Unwrap().(grouped)
	if !ok {
		return nil, fmt.Errorf("gsfl trainer does not expose its groups")
	}
	h := world.Hyper
	ap, err := env.NewAP("127.0.0.1:0", env.APConfig{
		Arch: world.Arch, Cut: world.Cut, Groups: g.Groups(),
		StepsPerClient: h.StepsPerClient,
		LR:             h.LR, Momentum: h.Momentum, ClipNorm: h.ClipNorm,
		LRDecayFactor: h.LRDecayFactor, LRDecayEvery: h.LRDecayEvery,
		Test: world.Test, Seed: world.Seed, Quantize: h.QuantizeTransfers,
		Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{ap: ap, clients: len(world.Train)}
	for ci, ds := range world.Train {
		cl, err := env.Dial(ap.Addr(), env.ClientConfig{
			ID: ci, Arch: world.Arch, Cut: world.Cut, Train: ds, Batch: h.Batch,
			LR: h.LR, Momentum: h.Momentum, ClipNorm: h.ClipNorm,
			LRDecayFactor: h.LRDecayFactor, LRDecayEvery: h.LRDecayEvery,
			Seed: world.Seed, Quantize: h.QuantizeTransfers,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := cl.Run(); err != nil {
				d.mu.Lock()
				d.errs = append(d.errs, err)
				d.mu.Unlock()
			}
		}()
	}
	if err := ap.WaitForClients(10 * time.Second); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close shuts the AP down, waits for every client goroutine and
// reports the first client error. Later calls return the same result.
func (d *deployment) close() error {
	d.once.Do(func() {
		d.err = d.ap.Shutdown()
		d.wg.Wait()
		if len(d.errs) > 0 {
			d.err = d.errs[0]
		}
	})
	return d.err
}

// round drives one AP round; ok is false when any slot went unserved.
func (d *deployment) round() (dur time.Duration, ok bool, err error) {
	st, err := d.ap.Round()
	if err != nil {
		return 0, false, err
	}
	return st.Duration, st.Participants == d.clients && st.Stragglers == 0 && st.Skipped == 0, nil
}

func runTCPTrain(rc *runCtx) (*pass, error) {
	p := &pass{Checks: map[string]string{}}
	spec := paperSpec(rc.seed)
	sp := rc.lane.BeginWall("setup", "setup")
	d, err := deploy(spec, rc.tracer)
	if err != nil {
		return nil, err
	}
	defer d.close()
	first, _ := d.ap.Evaluate()
	for r := 0; r < rc.warm; r++ {
		if _, _, err := d.round(); err != nil {
			return nil, err
		}
	}
	warmLoss, _ := d.ap.Evaluate()
	timed := rc.endSetup(p, sp)
	if rc.setupOnly {
		return p, nil
	}
	for r := 0; r < rc.ops; r++ {
		dur, ok, err := d.round()
		if err != nil {
			return nil, err
		}
		rc.opSpan("round", dur)
		p.OpMs = append(p.OpMs, dur.Seconds()*1e3)
		p.Attempted++
		if !ok {
			p.Failed++
		}
	}
	rc.endTimed(p, time.Since(timed))
	loss, acc := d.ap.Evaluate()
	if err := d.close(); err != nil {
		return nil, err
	}
	p.Checks["final_loss"] = exact(loss)
	p.Checks["accuracy"] = exact(acc)
	checkLearning(p, first, loss)

	// The deployment must do the simulator's arithmetic: after the same
	// rounds at the same seed the global model, and so its test loss, is
	// bit-identical. Checked over the warm-up prefix here (a full replay
	// would double the run); all-workload runs also compare the final
	// losses of sim_paper and tcp_train.
	tr, _, err := newGSFL(spec)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for r := 0; r < rc.warm; r++ {
		if _, err := tr.Round(ctx); err != nil {
			return nil, err
		}
	}
	ref, err := tr.Evaluate(ctx)
	if err != nil {
		return nil, err
	}
	if ref.Loss != warmLoss {
		p.failf("after %d rounds the deployment's loss %v differs from the simulator's %v", rc.warm, warmLoss, ref.Loss)
	}
	return p, nil
}

const echoClients = 600

func runTCPEcho(rc *runCtx) (*pass, error) {
	p := &pass{Checks: map[string]string{}}
	sp := rc.lane.BeginWall("setup", "setup")
	// RunLoadGen returns only after tearing 600 connections down, so the
	// timed interval is closed by the last OnRound, not by its return.
	var timed time.Time
	rounds := rc.warm + rc.ops
	if rc.setupOnly {
		rounds = rc.warm
	}
	n := 0
	rep, err := env.RunLoadGen(env.LoadGenConfig{
		Clients: echoClients, Groups: 6, Rounds: rounds, StepsPerClient: 2, Batch: 8,
		Seed: rc.seed, RoundDeadline: 30 * time.Second, Tracer: rc.tracer,
		OnRound: func(st env.RoundStats) {
			n++
			switch {
			case n == rc.warm:
				timed = rc.endSetup(p, sp)
			case n > rc.warm:
				rc.opSpan("round", st.Duration)
				p.OpMs = append(p.OpMs, st.Duration.Seconds()*1e3)
				p.Attempted++
				if st.Participants != echoClients || st.Stragglers != 0 || st.Skipped != 0 {
					p.Failed++
				}
				if n == rounds {
					rc.endTimed(p, time.Since(timed))
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if rc.setupOnly {
		return p, nil
	}
	p.Checks["bytes_read"] = strconv.FormatInt(rep.BytesRead, 10)
	p.Checks["bytes_written"] = strconv.FormatInt(rep.BytesWritten, 10)
	if rep.BytesRead <= 0 || rep.BytesWritten <= 0 {
		p.failf("no bytes moved: read %d written %d", rep.BytesRead, rep.BytesWritten)
	}
	return p, nil
}

// gridJobs expands the benchmark grid on env.TestSpec — schemes
// {gsfl,sl,sfl,fl,cl} × groups {1,2,3} × quantized {false,true} per
// seed, seeds outermost, 20 rounds, eval every 5 — and keeps the first n
// jobs.
func gridJobs(seed int64, n int) ([]sweep.Job, error) {
	const perSeed = 5 * 3 * 2
	g := sweep.Grid{Name: "bench", Base: env.TestSpec(), Rounds: 20, EvalEvery: 5}
	for s := int64(0); s*perSeed < int64(n); s++ {
		g.Axes.Seeds = append(g.Axes.Seeds, seed+s)
	}
	g.Axes.Groups = []int{1, 2, 3}
	g.Axes.Quantized = []bool{false, true}
	g.Axes.Schemes = []string{"gsfl", "sl", "sfl", "fl", "cl"}
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	return jobs[:n], nil
}

// warmSeedOffset keeps the warm-up jobs out of the timed grid's seeds.
const warmSeedOffset = 1000

type gridRun struct {
	wall   time.Duration
	jobMs  []float64 // per job, in completion order
	events map[string]int
}

// schedule runs jobs through the single-process scheduler into a fresh
// store at dir.
func schedule(jobs []sweep.Job, dir string, inflight, ckptEvery int, tracer *obs.Tracer, lane *obs.Track) (*gridRun, error) {
	store, err := sweep.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	gr := &gridRun{}
	s := &sweep.Scheduler{Jobs: inflight, Workers: pinnedProcs, CheckpointEvery: ckptEvery, Tracer: tracer,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobDone {
				d := time.Duration(e.HostSeconds * float64(time.Second))
				gr.jobMs = append(gr.jobMs, e.HostSeconds*1e3)
				lane.WallSpanAt("job", "op", time.Now().Add(-d), d)
			}
		})}}
	t0 := time.Now()
	if _, err := s.Run(context.Background(), jobs, store); err != nil {
		return nil, err
	}
	gr.wall = time.Since(t0)
	return gr, nil
}

// serve runs jobs through a fleet coordinator and two in-process
// workers over loopback into a fresh store at dir.
func serve(jobs []sweep.Job, dir string, ckptEvery int, tracer *obs.Tracer, lane *obs.Track) (*gridRun, map[string]float64, error) {
	store, err := sweep.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	gr := &gridRun{events: map[string]int{}}
	leased := map[string]time.Time{}
	t0 := time.Now()
	coord, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{CheckpointEvery: ckptEvery, Tracer: tracer,
		Observers: []fleet.Observer{fleet.ObserverFunc(func(e fleet.Event) {
			gr.events[e.Kind.String()]++
			switch e.Kind {
			case fleet.JobLeased:
				leased[e.Job.ID] = time.Now()
			case fleet.JobRecorded:
				d := time.Since(leased[e.Job.ID])
				gr.jobMs = append(gr.jobMs, d.Seconds()*1e3)
				lane.WallSpanAt("job", "op", leased[e.Job.ID], d)
			}
		})}})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workerErr := make([]error, pinnedProcs)
	for w := 0; w < pinnedProcs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErr[w] = fleet.RunWorker(ctx, fleet.WorkerConfig{
				Addr: coord.Addr().String(), Name: fmt.Sprintf("w%d", w),
				ScratchDir: filepath.Join(dir, fmt.Sprintf("w%d", w)),
			})
		}(w)
	}
	_, err = coord.Wait(ctx)
	gr.wall = time.Since(t0)
	counters := scrape(coord.MetricsHandler())
	coord.Close()
	cancel()
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	for _, werr := range workerErr {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, nil, werr
		}
	}
	return gr, counters, nil
}

// manifestLines indexes a store's manifest by job ID.
func manifestLines(dir string) (map[string]string, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		var e struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			return nil, fmt.Errorf("%s: manifest line %q: %w", dir, ln, err)
		}
		out[e.ID] = ln
	}
	return out, nil
}

// storeHash is the SHA-256 of a compacted store's durable bytes:
// manifest.jsonl, then every curve CSV in name order.
func storeHash(dir string) (string, error) {
	curves, err := filepath.Glob(filepath.Join(dir, "curves", "*.csv"))
	if err != nil {
		return "", err
	}
	sort.Strings(curves)
	h := sha256.New()
	for _, path := range append([]string{filepath.Join(dir, "manifest.jsonl")}, curves...) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(buf))
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// recheckSample re-executes the first jobs of the grid — one per scheme,
// full precision and quantized — on their own through the scheduler and
// requires the workload's store to hold the same bytes for them: the
// seed-independent form of "fleet_grid's store equals sweep_grid's".
func recheckSample(p *pass, jobs []sweep.Job, storeDir, refDir string) error {
	if len(jobs) > 10 {
		jobs = jobs[:10]
	}
	if _, err := schedule(jobs, refDir, pinnedProcs, 0, nil, nil); err != nil {
		return err
	}
	got, err := manifestLines(storeDir)
	if err != nil {
		return err
	}
	want, err := manifestLines(refDir)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if got[j.ID] == "" || got[j.ID] != want[j.ID] {
			p.failf("job %s: manifest entry differs from an independent re-execution", j.Name)
			continue
		}
		a, errA := os.ReadFile(filepath.Join(storeDir, "curves", j.ID+".csv"))
		b, errB := os.ReadFile(filepath.Join(refDir, "curves", j.ID+".csv"))
		if errA != nil || errB != nil || string(a) != string(b) {
			p.failf("job %s: curve CSV differs from an independent re-execution", j.Name)
		}
	}
	return nil
}

func runSweepGrid(rc *runCtx) (*pass, error) {
	return runGrid(rc, func(jobs []sweep.Job, dir string, tracer *obs.Tracer, lane *obs.Track) (*gridRun, string, error) {
		gr, err := schedule(jobs, dir, pinnedProcs, 1, tracer, lane)
		return gr, dir, err
	})
}

func runFleetGrid(rc *runCtx) (*pass, error) {
	return runGrid(rc, func(jobs []sweep.Job, dir string, tracer *obs.Tracer, lane *obs.Track) (*gridRun, string, error) {
		gr, _, err := serve(jobs, dir, 1, tracer, lane)
		return gr, filepath.Join(dir, "store"), err
	})
}

// runGrid is both grid workloads: warm-up jobs on other seeds through
// the same plane (set-up), then the timed grid, then the store checks.
func runGrid(rc *runCtx, plane func(jobs []sweep.Job, dir string, tracer *obs.Tracer, lane *obs.Track) (*gridRun, string, error)) (*pass, error) {
	p := &pass{Checks: map[string]string{}}
	sp := rc.lane.BeginWall("setup", "setup")
	jobs, err := gridJobs(rc.seed, rc.ops)
	if err != nil {
		return nil, err
	}
	warm, err := gridJobs(rc.seed+warmSeedOffset, rc.warm)
	if err != nil {
		return nil, err
	}
	if _, _, err := plane(warm, filepath.Join(rc.scratch, "warm"), nil, nil); err != nil {
		return nil, err
	}
	rc.endSetup(p, sp)
	if rc.setupOnly {
		return p, nil
	}
	gr, storeDir, err := plane(jobs, filepath.Join(rc.scratch, "grid"), rc.tracer, rc.lane)
	if err != nil {
		return nil, err
	}
	rc.endTimed(p, gr.wall)
	p.OpMs = gr.jobMs
	p.Attempted = len(jobs)
	recorded, err := manifestLines(storeDir)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if recorded[j.ID] == "" {
			p.Failed++
		}
	}
	hash, err := storeHash(storeDir)
	if err != nil {
		return nil, err
	}
	p.Checks["store_sha256"] = hash
	return p, recheckSample(p, jobs, storeDir, filepath.Join(rc.scratch, "ref"))
}
