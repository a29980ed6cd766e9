// Command gsfl-sim trains one distributed-learning scheme in the
// simulated wireless environment through the public run API (gsfl/sim):
// rounds stream as they complete, the process exits cleanly on Ctrl-C,
// and long runs can checkpoint and resume bit-identically.
//
// Output: a human-readable evaluation table by default, or one JSON
// line per round with -json (round index, per-component latencies, and
// loss/accuracy on evaluation rounds) for machine consumption. The
// final curve can additionally be written as CSV with -out.
//
// Examples:
//
//	gsfl-sim -scheme gsfl -clients 30 -groups 6 -rounds 50 -eval-every 5
//	gsfl-sim -scheme gsfl -rounds 2 -json
//	gsfl-sim -rounds 100 -checkpoint run.ckpt -checkpoint-every 10
//	gsfl-sim -rounds 100 -checkpoint run.ckpt -resume   # continue a killed run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"

	"gsfl/cliutil"
	"gsfl/env"
	"gsfl/obs"
	"gsfl/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfl-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gsfl-sim", flag.ContinueOnError)
	var (
		scheme    = fs.String("scheme", "gsfl", "scheme to train: one of sim.Schemes()")
		clients   = fs.Int("clients", 30, "number of clients (N)")
		groups    = fs.Int("groups", 6, "number of GSFL groups (M)")
		rounds    = fs.Int("rounds", 20, "training rounds (total, including resumed ones)")
		evalEvery = fs.Int("eval-every", 5, "evaluate every k rounds")
		imageSize = fs.Int("image-size", 16, "synthetic GTSRB image edge (divisible by 4)")
		samples   = fs.Int("samples", 100, "training samples per client")
		testPer   = fs.Int("test-per-class", 5, "test samples per class")
		alpha     = fs.Float64("alpha", 1.0, "Dirichlet non-IID alpha (0 = IID)")
		cut       = fs.Int("cut", 3, "cut layer index")
		batch     = fs.Int("batch", 16, "mini-batch size")
		steps     = fs.Int("steps", 4, "mini-batches per client per round")
		lr        = fs.Float64("lr", 0.02, "learning rate")
		momentum  = fs.Float64("momentum", 0.9, "SGD momentum")
		seed      = fs.Int64("seed", 1, "global random seed")
		out       = fs.String("out", "", "optional CSV output path for the curve")
		jsonOut   = fs.Bool("json", false, "emit one JSON line per round instead of the table")
		pipelined = fs.Bool("pipelined", false, "overlap communication and computation in GSFL turns")
		quant     = fs.Bool("quant", false, "quantize smashed data and gradients to 8 bits")
		dropout   = fs.Float64("dropout", 0, "per-round client unavailability probability (GSFL)")
		ckpt      = fs.String("checkpoint", "", "checkpoint file path")
		ckptEvery = fs.Int("checkpoint-every", 10, "rounds between checkpoints (with -checkpoint)")
		resume    = fs.Bool("resume", false, "resume from the -checkpoint file (its scheme and options win over -scheme; the env flags must match the original run)")
		metrics   = fs.String("metrics", "", "address serving run metrics (round/phase histograms, plus population gauges when -population is set) over HTTP")
		list      = fs.Bool("list", false, "list the registered schemes, allocators, strategies, archs, and datasets, then exit")
	)
	var envFlags cliutil.EnvFlags
	envFlags.Register(fs)
	var popFlags cliutil.PopFlags
	popFlags.Register(fs)
	var obsFlags cliutil.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		cliutil.PrintRegistries(os.Stdout)
		return nil
	}

	spec := env.PaperSpec()
	spec.Clients = *clients
	spec.Groups = *groups
	spec.ImageSize = *imageSize
	spec.TrainPerClient = *samples
	spec.TestPerClass = *testPer
	spec.Alpha = *alpha
	spec.Cut = *cut
	spec.Hyper.Batch = *batch
	spec.Hyper.StepsPerClient = *steps
	spec.Hyper.LR = *lr
	spec.Hyper.Momentum = *momentum
	spec.Seed = *seed
	spec.Device.N = *clients
	spec.Pipelined = *pipelined
	spec.Hyper.QuantizeTransfers = *quant
	spec.DropoutProb = *dropout

	if err := envFlags.Apply(&spec); err != nil {
		return err
	}
	if err := popFlags.Apply(&spec); err != nil {
		return err
	}

	world, err := env.Build(spec)
	if err != nil {
		return err
	}
	// -metrics serves the run's own histograms/counters; when a
	// population is active its gauges are concatenated onto the same
	// page (metric names are disjoint, so the exposition stays valid).
	var runMetrics *sim.RunMetrics
	if *metrics != "" {
		runMetrics = sim.NewRunMetrics()
		pm, _ := world.Pop.(interface{ MetricsHandler() http.Handler })
		_, stop, err := cliutil.ServeHTTP(*metrics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			runMetrics.WriteText(w)
			if pm != nil {
				pm.MetricsHandler().ServeHTTP(w, r)
			}
		}))
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stop()
	}

	tracer, obsStop, err := obsFlags.Start(obs.ClockVirtual)
	if err != nil {
		return err
	}

	// Flags explicitly given on the command line; on resume, cadences
	// not re-specified are inherited from the checkpoint.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	opts := []sim.RunOption{
		sim.WithRounds(*rounds),
		sim.WithWorkers(envFlags.Workers),
	}
	if tracer != nil {
		opts = append(opts, sim.WithTracer(tracer))
	}
	if runMetrics != nil {
		opts = append(opts, sim.WithObserver(runMetrics))
	}
	if !*resume || explicit["eval-every"] {
		opts = append(opts, sim.WithEvalEvery(*evalEvery))
	}
	if *ckpt != "" {
		opts = append(opts, sim.WithCheckpointPath(*ckpt))
		if !*resume || explicit["checkpoint-every"] {
			opts = append(opts, sim.WithCheckpointEvery(*ckptEvery))
		}
	}
	if *jsonOut {
		opts = append(opts, sim.WithObserver(jsonObserver(os.Stdout)))
	} else {
		opts = append(opts, sim.WithObserver(tableObserver(os.Stdout)))
	}

	var runner *sim.Runner
	if *resume {
		if *ckpt == "" {
			return fmt.Errorf("-resume needs -checkpoint")
		}
		// The checkpoint dictates the scheme and its options; -scheme is
		// ignored on resume.
		if runner, err = sim.Resume(*ckpt, world, opts...); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("resuming %s from %s at round %d (of %d)\n",
				runner.Scheme(), *ckpt, runner.CompletedRounds(), *rounds)
		}
	} else {
		schemeOpts, err := spec.SchemeOptions()
		if err != nil {
			return err
		}
		tr, err := sim.New(*scheme, world, schemeOpts)
		if err != nil {
			return err
		}
		runner = sim.NewRunner(tr, opts...)
		if !*jsonOut {
			fmt.Printf("training %s: N=%d M=%d rounds=%d image=%dpx cut=%d\n",
				*scheme, *clients, *groups, *rounds, *imageSize, *cut)
		}
	}
	if !*jsonOut {
		fmt.Printf("%8s %14s %10s %10s\n", "round", "latency(s)", "loss", "accuracy")
	}

	curve, err := runner.Run(ctx)
	// Write the trace even after a failed run — a partial trace is
	// exactly what a post-mortem needs.
	if serr := obsStop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Printf("final accuracy: %.2f%%\n", curve.FinalAccuracy()*100)
	}

	if *out != "" {
		if err := sim.SaveCurvesCSV(*out, []*sim.Curve{curve}); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("curve written to %s\n", *out)
		}
	}
	return nil
}

// tableObserver prints one table row per evaluation as it streams.
func tableObserver(w *os.File) sim.Observer {
	return sim.ObserverFunc(func(e sim.RoundEvent) {
		if e.Eval == nil {
			return
		}
		fmt.Fprintf(w, "%8d %14.3f %10.4f %9.2f%%\n",
			e.Round, e.ElapsedSeconds, e.Eval.Loss, e.Eval.Accuracy*100)
	})
}

// jsonEvent is the machine-readable per-round record -json emits.
type jsonEvent struct {
	Scheme         string             `json:"scheme"`
	Round          int                `json:"round"`
	Rounds         int                `json:"rounds"`
	RoundSeconds   float64            `json:"round_seconds"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Components     map[string]float64 `json:"components"`
	Loss           *float64           `json:"loss,omitempty"`
	Accuracy       *float64           `json:"accuracy,omitempty"`
	Checkpoint     string             `json:"checkpoint,omitempty"`
}

// jsonObserver emits one JSON line per RoundEvent.
func jsonObserver(w *os.File) sim.Observer {
	enc := json.NewEncoder(w)
	return sim.ObserverFunc(func(e sim.RoundEvent) {
		ev := jsonEvent{
			Scheme:         e.Scheme,
			Round:          e.Round,
			Rounds:         e.Rounds,
			RoundSeconds:   e.RoundSeconds,
			ElapsedSeconds: e.ElapsedSeconds,
			Components:     map[string]float64{},
			Checkpoint:     e.CheckpointPath,
		}
		for _, c := range sim.Components() {
			if s := e.Ledger.Get(c); s > 0 {
				ev.Components[c.String()] = s
			}
		}
		if e.Eval != nil {
			loss, acc := e.Eval.Loss, e.Eval.Accuracy
			ev.Loss, ev.Accuracy = &loss, &acc
		}
		// Encode errors (closed pipe etc.) intentionally do not abort
		// training; the run is the product, the stream is telemetry.
		_ = enc.Encode(ev)
	})
}
