package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gsfl/internal/bincodec"
	"gsfl/internal/metrics"
	"gsfl/internal/parallel"
	"gsfl/internal/schemes"
	"gsfl/obs"
)

// RoundEvent is the structured progress report the Runner streams to
// observers after every completed round.
type RoundEvent struct {
	// Scheme is the trainer's name.
	Scheme string
	// Round is the 1-based index of the round that just completed;
	// Rounds is the run's configured total.
	Round  int
	Rounds int
	// Ledger is the round's per-component latency breakdown.
	Ledger *Ledger
	// RoundSeconds is the round's critical-path latency;
	// ElapsedSeconds is the cumulative virtual training time.
	RoundSeconds   float64
	ElapsedSeconds float64
	// HostSeconds is the real (host) wall-clock time the round took to
	// execute, including its evaluation and checkpoint when they ran.
	// Unlike every other field it is not deterministic; progress
	// reporting and ETA estimation use it so observers need not time
	// rounds themselves.
	HostSeconds float64
	// Eval is the post-round evaluation, nil on rounds the evaluation
	// cadence skipped.
	Eval *Eval
	// Checkpoint is the run's encoded checkpoint after this round, nil on
	// rounds the checkpoint cadence skipped. It is the Runner's own
	// buffer, rewritten at the next checkpoint: valid during the OnRound
	// call only, so an observer that keeps it copies it.
	Checkpoint []byte
	// CheckpointPath is the file those bytes were written to, empty when
	// the run checkpoints into its observers alone (no
	// WithCheckpointPath) or the round had no checkpoint.
	CheckpointPath string
}

// Observer receives RoundEvents as the run progresses. OnRound is
// called synchronously from the run loop, in round order.
type Observer interface {
	OnRound(RoundEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(RoundEvent)

// OnRound implements Observer.
func (f ObserverFunc) OnRound(e RoundEvent) { f(e) }

// RunOption configures a Runner.
type RunOption func(*Runner)

// WithRounds sets the total number of training rounds (required; on
// resume it is the overall total, including already-completed rounds).
func WithRounds(n int) RunOption {
	return func(r *Runner) { r.rounds = n }
}

// WithEvalEvery sets the evaluation cadence in rounds (default 1). The
// final round is always evaluated.
func WithEvalEvery(k int) RunOption {
	return func(r *Runner) { r.evalEvery = k }
}

// WithObserver subscribes an observer to the run's RoundEvent stream;
// repeat to subscribe several.
func WithObserver(obs Observer) RunOption {
	return func(r *Runner) { r.observers = append(r.observers, obs) }
}

// WithWorkers sets the shared worker pool size for the run
// (0 = GOMAXPROCS, 1 = serial); Run restores the size it found when it
// returns. Results are bit-identical for any worker count; omitting the
// option leaves the pool untouched.
func WithWorkers(n int) RunOption {
	return func(r *Runner) { r.workers = &n }
}

// WithCheckpointEvery enables checkpointing: after every n-th round
// and after the final round the trainer's complete state is encoded,
// handed to the observers (RoundEvent.Checkpoint) and, with
// WithCheckpointPath, written to that file. Requires a trainer
// constructed by New (or Resume, ResumeFrom) whose scheme supports
// state capture — all built-in schemes do — and a path or an observer
// to receive it.
func WithCheckpointEvery(n int) RunOption {
	return func(r *Runner) { r.ckptEvery = n }
}

// WithCheckpointPath sets the checkpoint file location. The file is
// rewritten atomically at each checkpoint. Under Resume it defaults to
// the file the run resumed from, and an empty path there keeps the
// continued run's checkpoints off the disk; under ResumeFrom there is
// none unless this names one.
func WithCheckpointPath(path string) RunOption {
	return func(r *Runner) { r.ckptPath = path }
}

// WithTracer attaches an execution tracer (gsfl/obs) to the run. For
// trainers constructed by sim.New the tracer is installed into the
// environment, so every round's latency pricing emits virtual-clock
// phase spans (round → group/client lane → phase); the Runner
// additionally marks evaluations on each scheme's "eval" lane. A nil
// tracer — or omitting the option — leaves the run on the zero-cost
// disabled path.
func WithTracer(t *obs.Tracer) RunOption {
	return func(r *Runner) { r.tracer = t }
}

// Runner drives one trainer for a configured number of rounds,
// streaming RoundEvents and optionally checkpointing. Create with
// NewRunner, Resume or ResumeFrom; a Runner runs once.
type Runner struct {
	trainer   schemes.Trainer
	rounds    int
	evalEvery int
	observers []Observer
	workers   *int
	ckptEvery int
	ckptPath  string
	tracer    *obs.Tracer

	// Checkpoint encoding state, set up once: the trainer's parts (they
	// point at the live trainer), the environment fingerprint (constant
	// for a run by construction), and the buffer every save reuses.
	ckptParts schemes.StateParts
	envHash   uint64
	ckptEnc   bincodec.Enc

	// Resume state: rounds already completed and the curve points they
	// produced.
	startRound  int
	priorPoints []Point
	// The sums over every completed round, a resumed run's checkpointed
	// ones included (Totals).
	ledger  Ledger
	elapsed float64

	err error // construction error, surfaced by Run
}

// NewRunner builds a Runner over a trainer. Configuration errors are
// deferred to Run so call sites can stay on one line.
func NewRunner(tr Trainer, opts ...RunOption) *Runner {
	r := &Runner{trainer: tr, evalEvery: 1}
	for _, o := range opts {
		o(r)
	}
	r.err = r.validate()
	return r
}

func (r *Runner) validate() error {
	if r.trainer == nil {
		return fmt.Errorf("sim: runner needs a trainer")
	}
	if r.rounds <= r.startRound {
		return fmt.Errorf("sim: rounds %d must exceed completed rounds %d (set sim.WithRounds)", r.rounds, r.startRound)
	}
	if r.evalEvery <= 0 {
		return fmt.Errorf("sim: eval cadence %d must be positive", r.evalEvery)
	}
	if r.ckptEvery < 0 {
		return fmt.Errorf("sim: checkpoint cadence %d must not be negative", r.ckptEvery)
	}
	if r.ckptPath != "" && r.ckptEvery == 0 {
		return fmt.Errorf("sim: checkpoint path set without sim.WithCheckpointEvery")
	}
	if r.ckptEvery > 0 {
		if r.ckptPath == "" && len(r.observers) == 0 {
			return fmt.Errorf("sim: a checkpoint cadence with neither sim.WithCheckpointPath nor an observer checkpoints into nothing")
		}
		st, ok := r.trainer.(*SchemeTrainer)
		if !ok {
			return fmt.Errorf("sim: checkpointing needs a trainer constructed by sim.New")
		}
		cp, ok := st.Trainer.(schemes.Checkpointer)
		if !ok {
			return fmt.Errorf("sim: scheme %q does not support state capture", st.scheme)
		}
		r.ckptParts = cp.StateParts()
		if r.startRound == 0 { // Resume has fingerprinted the env already
			r.envHash = envFingerprint(st.env)
		}
	}
	return nil
}

// Scheme returns the driven trainer's scheme name.
func (r *Runner) Scheme() string {
	if r.trainer == nil {
		return ""
	}
	return r.trainer.Name()
}

// Options returns the scheme options of the driven trainer: the ones it
// was given to sim.New or, after Resume, the ones its checkpoint
// carried. A trainer not built by either has none.
func (r *Runner) Options() Options {
	if st, ok := r.trainer.(*SchemeTrainer); ok {
		return st.opts
	}
	return Options{}
}

// CompletedRounds returns how many rounds were already done before this
// Runner starts — zero for a fresh run, the checkpointed round after
// Resume.
func (r *Runner) CompletedRounds() int { return r.startRound }

// Totals returns the run's latency sums over every round completed so
// far, a resumed run's checkpointed rounds included: the per-component
// ledger, and the cumulative latency (each round's total added in round
// order, numerically ledger.Total() in another order). A resumed run's
// are bit-identical to an uninterrupted one's.
func (r *Runner) Totals() (Ledger, float64) { return r.ledger, r.elapsed }

// Run executes the remaining rounds. It returns the training curve —
// on resume, including the points restored from the checkpoint — and
// the first error encountered. Cancelling ctx stops the run within one
// round with ctx.Err(); the partial curve is still returned.
func (r *Runner) Run(ctx context.Context) (*Curve, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.workers != nil {
		prev := parallel.Workers()
		parallel.SetWorkers(*r.workers)
		defer parallel.SetWorkers(prev)
	}
	if r.tracer.On() {
		if st, ok := r.trainer.(*SchemeTrainer); ok {
			st.env.Trace = r.tracer
		}
		// On resume, fast-forward the virtual clock to where the
		// checkpointed run left off so new spans land after the (absent)
		// earlier rounds rather than on top of them.
		if gap := r.elapsed - r.tracer.Now(); gap > 0 {
			r.tracer.Advance(gap)
		}
	}
	if dir := filepath.Dir(r.ckptPath); r.ckptPath != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: creating checkpoint directory: %w", err)
		}
	}
	curve := &Curve{Scheme: r.trainer.Name(), Points: append([]Point(nil), r.priorPoints...)}
	for round := r.startRound + 1; round <= r.rounds; round++ {
		if err := ctx.Err(); err != nil {
			return curve, err
		}
		roundStart := time.Now()
		led, err := r.trainer.Round(ctx)
		if err != nil {
			return curve, r.runErr(ctx, fmt.Errorf("sim: round %d: %w", round, err))
		}
		r.ledger.Merge(led)
		r.elapsed += led.Total()
		ev := RoundEvent{
			Scheme:         r.trainer.Name(),
			Round:          round,
			Rounds:         r.rounds,
			Ledger:         led,
			RoundSeconds:   led.Total(),
			ElapsedSeconds: r.elapsed,
		}
		if round%r.evalEvery == 0 || round == r.rounds {
			e, err := r.trainer.Evaluate(ctx)
			if err != nil {
				return curve, r.runErr(ctx, fmt.Errorf("sim: evaluating after round %d: %w", round, err))
			}
			ev.Eval = &e
			curve.Append(metrics.Point{
				Round: round, LatencySeconds: r.elapsed, Loss: e.Loss, Accuracy: e.Accuracy,
			})
			if r.tracer.On() {
				lane := r.tracer.Lane(r.trainer.Name(), "eval")
				lane.Seek(r.elapsed)
				lane.Instant("eval", "eval",
					fmt.Sprintf("round %d acc=%.4f loss=%.4f", round, e.Accuracy, e.Loss))
			}
		}
		if r.ckptEvery > 0 && (round%r.ckptEvery == 0 || round == r.rounds) {
			if ev.Checkpoint, err = r.saveCheckpoint(round, curve); err != nil {
				return curve, err
			}
			ev.CheckpointPath = r.ckptPath
		}
		ev.HostSeconds = time.Since(roundStart).Seconds()
		for _, obs := range r.observers {
			obs.OnRound(ev)
		}
	}
	return curve, nil
}

// runErr collapses failures caused by cancellation to the bare context
// error, so callers can compare against ctx.Err() directly.
func (r *Runner) runErr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}
