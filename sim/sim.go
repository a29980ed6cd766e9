// Package sim is the public run API of the GSFL reproduction: the one
// way to construct and drive a training scheme.
//
// It wraps the internal training machinery behind three ideas:
//
//   - A scheme registry. Every scheme self-registers under its name
//     ("gsfl", "sl", "fl", "cl", "sfl"; importing this package links all
//     five in), Schemes lists them, and New instantiates one over an
//     environment — no scheme-name switch exists anywhere else.
//
//   - A Runner. Built with functional options (WithRounds,
//     WithEvalEvery, WithObserver, WithWorkers, WithCheckpointEvery),
//     it drives rounds under a context, streams a structured RoundEvent
//     to observers as each round completes, and returns the training
//     curve. Cancelling the context stops the run within one round.
//
//   - Checkpoint/resume. A Runner configured with WithCheckpointEvery
//     persists the trainer's complete mutable state at round
//     boundaries; Resume rebuilds the trainer from the file and an
//     identically constructed environment and continues bit-identically
//     — a killed 100-round run restarts from round 50 and produces the
//     exact curve, latencies included, of an uninterrupted run. A caller
//     holding the bytes rather than a file decodes them once
//     (DecodeCheckpoint) and resumes from what it decoded (ResumeFrom).
//
// Minimal use:
//
//	world, _ := env.Build(env.TestSpec())
//	tr, _ := sim.New("gsfl", world, sim.Options{Groups: 2})
//	curve, err := sim.NewRunner(tr,
//	    sim.WithRounds(50),
//	    sim.WithEvalEvery(5),
//	    sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
//	        fmt.Printf("round %d: %.3fs\n", e.Round, e.ElapsedSeconds)
//	    })),
//	).Run(ctx)
package sim

import (
	"gsfl/internal/metrics"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"

	// The built-in schemes self-register into the registry from their
	// init functions (internal/gsfl registers gsfl, sl, sfl and fl);
	// importing gsfl/sim therefore makes all five available by name.
	_ "gsfl/internal/gsfl"
	_ "gsfl/internal/schemes/cl"
)

// Aliases re-export the contract types so callers of the run API need
// no internal imports.
type (
	// Env is the complete simulated world a scheme trains in.
	Env = schemes.Env
	// Trainer is one scheme mid-training (context-aware rounds).
	Trainer = schemes.Trainer
	// Eval is one test-set evaluation (loss, accuracy).
	Eval = schemes.Eval
	// Options carries the scheme-structure knobs a factory may consume.
	Options = schemes.FactoryOpts
	// Factory instantiates a scheme over an environment.
	Factory = schemes.Factory
	// Curve is a training trajectory; Runner.Run returns one.
	Curve = metrics.Curve
	// Point is one evaluation on a Curve.
	Point = metrics.Point
	// Ledger is a round's per-component latency breakdown.
	Ledger = simnet.Ledger
)

// Register adds a scheme factory under its name, making it available to
// New and to checkpoint resume. It panics on an empty name, a nil
// factory, or a duplicate registration (programmer errors at init
// time). The built-in schemes register themselves; call this only for
// out-of-tree schemes.
func Register(name string, f Factory) {
	schemes.Register(name, f)
}

// Schemes returns the registered scheme names in sorted order.
func Schemes() []string {
	return schemes.Names()
}

// SchemeTrainer is a registry-constructed trainer. It remembers which
// scheme, options, and environment built it, which is what lets a
// checkpoint file reconstruct the trainer on resume (and reject resumes
// into a differently configured world).
type SchemeTrainer struct {
	schemes.Trainer
	scheme string
	opts   Options
	env    *Env
}

// New instantiates the named scheme over env — the single
// scheme-construction path of the run API.
func New(scheme string, env *Env, opts Options) (*SchemeTrainer, error) {
	tr, err := schemes.NewByName(scheme, env, opts)
	if err != nil {
		return nil, err
	}
	return &SchemeTrainer{Trainer: tr, scheme: scheme, opts: opts, env: env}, nil
}

// Scheme returns the registry name the trainer was constructed under.
func (t *SchemeTrainer) Scheme() string { return t.scheme }

// Options returns the scheme options the trainer was constructed with.
func (t *SchemeTrainer) Options() Options { return t.opts }

// Unwrap returns the underlying scheme implementation, for callers that
// need scheme-specific accessors (e.g. gsfl's group diagnostics).
func (t *SchemeTrainer) Unwrap() schemes.Trainer { return t.Trainer }
