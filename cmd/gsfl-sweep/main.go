// Command gsfl-sweep runs experiment grids through the concurrent,
// resumable sweep engine (gsfl/sweep). It is the one producer of the
// paper's figures and tables.
//
// A sweep is either a named paper experiment (-exp fig2a, -exp grouping,
// …, -exp all — the catalogue in gsfl/sweep) or a custom grid file
// (-grid grid.json). Results land in a store directory (-out): a
// JSON-lines manifest (one record per completed job: identity, final
// accuracy, virtual-latency breakdown, curve points) plus one curve CSV
// per job. For named experiments the figure/table CSVs are folded and
// written into the store directory as well (README.md, "Which experiment
// regenerates which paper result", maps each -exp name to its CSVs;
// -exp all writes all 17). table3 and validate train nothing: alone they
// write their CSV without opening a store.
//
// Sweeps are resumable: with -resume, jobs already recorded in the
// manifest are skipped, and jobs killed mid-run continue from their sim
// checkpoint bit-identically. The final manifest bytes depend only on
// the grid — not on -jobs, scheduling, or how often the sweep was
// interrupted.
//
// A grid file selects a base via -scale, optionally patches it with a
// partial env.Spec ("base"), and sweeps any subset of axes:
//
//	{
//	  "name": "noniid-x-dropout",
//	  "rounds": 6, "eval_every": 2,
//	  "base": {"arch": "gtsrb-cnn", "alloc": "latency-min", "image_size": 8},
//	  "axes": {
//	    "alphas": [0.1, 1],
//	    "dropouts": [0, 0.2],
//	    "schemes": ["gsfl"]
//	  }
//	}
//
// A sweep can also run distributed (gsfl/fleet): -serve turns this
// process into the coordinator — it owns the store and leases jobs to
// pull-based workers over TCP — and -worker joins a coordinator and
// executes leased jobs, streaming checkpoints back so a killed worker's
// job resumes bit-identically elsewhere. The compacted store bytes are
// identical to a single-process run of the same grid.
//
// Examples:
//
//	gsfl-sweep -exp fig2a -scale test -jobs 4 -out results/sweep
//	gsfl-sweep -grid grid.json -jobs 8 -resume
//	gsfl-sweep -exp all -scale medium -jobs 4 -checkpoint-every 5
//	gsfl-sweep -exp fig2a -serve :7070 -out results/fleet
//	gsfl-sweep -worker host:7070 -name rack3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"gsfl/cliutil"
	"gsfl/fleet"
	"gsfl/obs"
	"gsfl/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfl-sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gsfl-sweep", flag.ContinueOnError)
	var (
		gridFile  = fs.String("grid", "", "JSON grid file to sweep (mutually exclusive with -exp)")
		exp       = fs.String("exp", "", "named experiment: "+strings.Join(sweep.ExperimentNames(), "|")+", or all")
		scale     = fs.String("scale", "test", "base spec scale: test|medium|paper")
		outDir    = fs.String("out", "results/sweep", "store directory (manifest, curves, checkpoints)")
		jobs      = fs.Int("jobs", 0, "jobs trained concurrently (0 = GOMAXPROCS)")
		rounds    = fs.Int("rounds", 0, "override training rounds (0 = scale/grid default)")
		resume    = fs.Bool("resume", false, "skip jobs already in the manifest and continue killed in-flight jobs from their checkpoints")
		ckptEvery = fs.Int("checkpoint-every", 2, "rounds between in-flight job checkpoints (0 disables mid-job resume)")
		quiet     = fs.Bool("quiet", false, "suppress per-job progress lines")
		list      = fs.Bool("list", false, "list the registered schemes, allocators, strategies, archs, and datasets, then exit")

		serveAddr   = fs.String("serve", "", "run as fleet coordinator on this address (host:port; port 0 picks one) instead of training in-process")
		workerAddr  = fs.String("worker", "", "run as a fleet worker against the coordinator at this address (ignores grid/store flags)")
		leaseTTL    = fs.Duration("lease", fleet.DefaultLeaseTTL, "fleet lease TTL: a worker silent this long has its job reassigned (serve mode)")
		workerName  = fs.String("name", "", "fleet worker display name (worker mode; default worker-<pid>)")
		metricsAddr = fs.String("metrics", "", "serve fleet Prometheus metrics on this address (serve mode)")
	)
	var env cliutil.EnvFlags
	env.Register(fs)
	var obsFlags cliutil.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		cliutil.PrintRegistries(os.Stdout)
		return nil
	}
	if *workerAddr != "" {
		if *serveAddr != "" {
			return fmt.Errorf("-serve and -worker are mutually exclusive")
		}
		return runWorker(ctx, *workerAddr, *workerName, *quiet)
	}
	if (*gridFile == "") == (*exp == "") {
		return fmt.Errorf("choose exactly one of -grid or -exp")
	}
	sc, err := cliutil.ParseScale(*scale)
	if err != nil {
		return err
	}
	spec := sc.Spec
	if err := env.Apply(&spec); err != nil {
		return err
	}

	// Assemble the job list and, for named experiments, the figure folds
	// to apply afterwards.
	var sel sweep.GridSelection
	if *gridFile != "" {
		grid, err := loadGrid(*gridFile, spec, sc.Rounds, sc.EvalEvery)
		if err != nil {
			return err
		}
		if *rounds > 0 {
			grid.Rounds = *rounds
		}
		if sel.Jobs, err = grid.Jobs(); err != nil {
			return err
		}
	} else {
		r := sc.Rounds
		if *rounds > 0 {
			r = *rounds
		}
		catalogue := sweep.GridExperiments(spec, r, sc.EvalEvery, sc.Target)
		if sel, err = sweep.SelectGridExperiments(catalogue, *exp); err != nil {
			return err
		}
	}
	saved := func(name string, cells int) {
		fmt.Printf("%-10s folded (%d cells)\n", name, cells)
	}
	if len(sel.Jobs) == 0 {
		// table3 / validate alone: nothing to train, so no store,
		// scheduler or fleet — the fold computes the table from the spec.
		return sel.Save(*outDir, nil, saved)
	}

	if !*resume && sweep.StoreExists(*outDir) {
		// A fresh sweep must not silently reuse stale results.
		return fmt.Errorf("%s already holds a sweep manifest; pass -resume to continue it or choose another -out", *outDir)
	}
	store, err := sweep.OpenStore(*outDir)
	if err != nil {
		return err
	}
	defer store.Close()

	tracer, obsStop, err := obsFlags.Start(obs.ClockWall)
	if err != nil {
		return err
	}

	start := time.Now()
	var results []sweep.JobResult
	if *serveAddr != "" {
		results, err = serveFleet(ctx, *serveAddr, *metricsAddr, sel.Jobs, store, fleet.Config{
			LeaseTTL:        *leaseTTL,
			CheckpointEvery: *ckptEvery,
			Tracer:          tracer,
		}, *quiet)
	} else {
		sched := &sweep.Scheduler{
			Jobs:            *jobs,
			Workers:         env.Workers,
			CheckpointEvery: *ckptEvery,
			Tracer:          tracer,
		}
		if !*quiet {
			sched.Observers = append(sched.Observers, progressObserver(os.Stdout))
		}
		results, err = sched.Run(ctx, sel.Jobs, store)
	}
	// A partial trace of a failed sweep is still worth writing.
	if serr := obsStop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	fmt.Printf("sweep complete: %d jobs (%d unique) in %v; store: %s\n",
		len(sel.Jobs), store.Len(), time.Since(start).Round(time.Millisecond), *outDir)

	return sel.Save(*outDir, results, saved)
}

// runWorker joins a fleet coordinator and executes leased jobs until
// drained (sweep complete) or interrupted.
func runWorker(ctx context.Context, addr, name string, quiet bool) error {
	logf := func(string, ...any) {}
	if !quiet {
		logf = func(format string, args ...any) {
			fmt.Printf("worker: "+format+"\n", args...)
		}
	}
	err := fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: addr, Name: name, Logf: logf})
	if errors.Is(err, context.Canceled) {
		return nil // ^C is an orderly exit, not a failure
	}
	return err
}

// serveFleet runs the coordinator side of a distributed sweep: lease
// jobs to workers, persist their checkpoints and results, block until
// the store is complete and compacted.
func serveFleet(ctx context.Context, addr, metricsAddr string, jobs []sweep.Job, store *sweep.Store, cfg fleet.Config, quiet bool) ([]sweep.JobResult, error) {
	if !quiet {
		cfg.Observers = append(cfg.Observers, fleetProgressObserver(os.Stdout))
	}
	c, err := fleet.Serve(addr, jobs, store, cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fmt.Printf("coordinator on %s: %d jobs, lease %v, checkpoint every %d rounds\n",
		c.Addr(), len(jobs), cfg.LeaseTTL, cfg.CheckpointEvery)
	if metricsAddr != "" {
		bound, stop, err := cliutil.ServeHTTP(metricsAddr, c.MetricsHandler())
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		defer stop()
		fmt.Printf("fleet metrics on http://%s/\n", bound)
	}
	return c.Wait(ctx)
}

// fleetProgressObserver renders one line per coordinator event.
// Checkpoint uploads are deliberately silent — at tight cadences they
// would drown the lease lifecycle.
func fleetProgressObserver(w *os.File) fleet.Observer {
	return fleet.ObserverFunc(func(e fleet.Event) {
		switch e.Kind {
		case fleet.WorkerJoined:
			fmt.Fprintf(w, "[%3d/%d] join    %s\n", e.Done, e.Total, e.Worker)
		case fleet.WorkerLeft:
			fmt.Fprintf(w, "[%3d/%d] leave   %s\n", e.Done, e.Total, e.Worker)
		case fleet.JobLeased:
			if e.Round > 0 {
				fmt.Fprintf(w, "[%3d/%d] lease   %s -> %s (resume after round %d)\n", e.Done, e.Total, e.Job.Name, e.Worker, e.Round)
			} else {
				fmt.Fprintf(w, "[%3d/%d] lease   %s -> %s\n", e.Done, e.Total, e.Job.Name, e.Worker)
			}
		case fleet.JobReassigned:
			fmt.Fprintf(w, "[%3d/%d] requeue %s (was %s, round %d)\n", e.Done, e.Total, e.Job.Name, e.Worker, e.Round)
		case fleet.JobRecorded:
			fmt.Fprintf(w, "[%3d/%d] done    %s on %s\n", e.Done, e.Total, e.Job.Name, e.Worker)
		case fleet.JobFailed:
			fmt.Fprintf(w, "[%3d/%d] FAIL    %s on %s: %v\n", e.Done, e.Total, e.Job.Name, e.Worker, e.Err)
		case fleet.SweepCompleted:
			fmt.Fprintf(w, "[%3d/%d] sweep complete\n", e.Done, e.Total)
		}
	})
}

// gridFileSpec is the on-disk grid format: name, rounds, cadence, axes.
// The base spec comes from -scale (plus -alloc/-strategy overrides).
type gridFileSpec struct {
	Name      string          `json:"name"`
	Rounds    int             `json:"rounds"`
	EvalEvery int             `json:"eval_every"`
	Base      json.RawMessage `json:"base,omitempty"`
	Axes      sweep.Axes      `json:"axes"`
}

// loadGrid reads a grid file over the scale's base spec. Rounds and
// cadence default to the scale's when the file omits them. An optional
// "base" object is an env.Spec patch applied onto the scale's spec
// before the axes sweep — any Spec field, including registry-named
// extension points (dataset, arch, alloc, strategy), is expressible
// from a file. A key the format does not know — at the top level, in
// "axes" or in "base" — is an error naming it: a misspelt axis would
// otherwise be dropped and the sweep would silently train the wrong
// cells.
func loadGrid(path string, base sweep.Spec, defRounds, defEval int) (sweep.Grid, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return sweep.Grid{}, fmt.Errorf("reading grid: %w", err)
	}
	var gf gridFileSpec
	if err := decodeStrict(buf, &gf); err != nil {
		return sweep.Grid{}, fmt.Errorf("parsing grid %s: %w", path, err)
	}
	if gf.Name == "" {
		return sweep.Grid{}, fmt.Errorf("grid %s: missing name", path)
	}
	if gf.Rounds == 0 {
		gf.Rounds = defRounds
	}
	if gf.EvalEvery == 0 {
		gf.EvalEvery = defEval
	}
	if len(gf.Base) > 0 {
		if err := decodeStrict(gf.Base, &base); err != nil {
			return sweep.Grid{}, fmt.Errorf("parsing grid %s base spec: %w", path, err)
		}
		if err := base.Validate(); err != nil {
			return sweep.Grid{}, fmt.Errorf("grid %s base spec: %w", path, err)
		}
	}
	return sweep.Grid{
		Name: gf.Name, Base: base,
		Rounds: gf.Rounds, EvalEvery: gf.EvalEvery,
		Axes: gf.Axes,
	}, nil
}

// decodeStrict is json.Unmarshal that rejects unknown object keys (the
// error names the key) at every nesting level of v.
func decodeStrict(buf []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// progressObserver renders one line per job state change plus a coarse
// ETA derived from the rounds' host wall-clock (sim.RoundEvent
// .HostSeconds, which the scheduler forwards on every JobRound event —
// no timing needed here). The ETA is the serial-equivalent upper bound:
// remaining rounds times the mean host seconds per executed round.
func progressObserver(w *os.File) sweep.Observer {
	var (
		seen          int // jobs that have emitted any event
		seenRounds    int // their total round budget
		execRounds    int
		execHost      float64
		pendingRounds = map[string]int{} // started, unfinished jobs -> rounds left
		known         = map[string]bool{}
	)
	eta := func(total int) string {
		if execRounds == 0 || seen == 0 {
			return ""
		}
		left := 0
		for _, r := range pendingRounds {
			left += r
		}
		// Jobs the scheduler has not touched yet: assume the mean round
		// budget of the jobs seen so far.
		left += (total - seen) * (seenRounds / seen)
		d := time.Duration(float64(left) * execHost / float64(execRounds) * float64(time.Second))
		return fmt.Sprintf(" (serial eta<=%v)", d.Round(time.Second))
	}
	return sweep.ObserverFunc(func(e sweep.Event) {
		if !known[e.Job.ID] {
			known[e.Job.ID] = true
			seen++
			seenRounds += e.Job.Rounds
		}
		switch e.Kind {
		case sweep.JobStarted:
			pendingRounds[e.Job.ID] = e.Rounds
			fmt.Fprintf(w, "[%3d/%d] start  %s\n", e.Index+1, e.Total, e.Job.Name)
		case sweep.JobResumed:
			pendingRounds[e.Job.ID] = e.Rounds - e.Round
			fmt.Fprintf(w, "[%3d/%d] resume %s after round %d/%d\n", e.Index+1, e.Total, e.Job.Name, e.Round, e.Rounds)
		case sweep.JobRound:
			execRounds++
			execHost += e.HostSeconds
			if pendingRounds[e.Job.ID] > 0 {
				pendingRounds[e.Job.ID]--
			}
		case sweep.JobDone:
			delete(pendingRounds, e.Job.ID)
			fmt.Fprintf(w, "[%3d/%d] done   %s in %.2fs%s\n", e.Index+1, e.Total, e.Job.Name, e.HostSeconds, eta(e.Total))
		case sweep.JobSkipped:
			delete(pendingRounds, e.Job.ID)
			// Seed the rate estimate from the skipped job's recorded host
			// time (when the store still has it), so a resumed sweep's ETA
			// starts from the completed work instead of from zero.
			if e.HostSeconds > 0 {
				execRounds += e.Job.Rounds
				execHost += e.HostSeconds
			}
			fmt.Fprintf(w, "[%3d/%d] skip   %s (already in manifest)\n", e.Index+1, e.Total, e.Job.Name)
		case sweep.JobFailed:
			fmt.Fprintf(w, "[%3d/%d] FAIL   %s: %v\n", e.Index+1, e.Total, e.Job.Name, e.Err)
		}
	})
}
