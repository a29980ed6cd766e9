package sim_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/internal/bincodec"
	"gsfl/internal/model"
	"gsfl/internal/schemes"
	"gsfl/internal/schemes/schemestest"
	"gsfl/internal/wireless"
	"gsfl/sim"
)

// opts returns working scheme options for any built-in scheme over a
// schemestest env (only gsfl reads them).
func opts() sim.Options {
	return sim.Options{Groups: 2}
}

func TestSchemesListsAllBuiltins(t *testing.T) {
	got := map[string]bool{}
	for _, name := range sim.Schemes() {
		got[name] = true
	}
	for _, want := range []string{"cl", "fl", "gsfl", "sfl", "sl"} {
		if !got[want] {
			t.Fatalf("registry %v is missing %q", sim.Schemes(), want)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	sim.Register("gsfl", func(env *sim.Env, _ sim.Options) (sim.Trainer, error) {
		return nil, nil
	})
}

func TestNewUnknownScheme(t *testing.T) {
	env := schemestest.NewEnv(1, 4, 30)
	if _, err := sim.New("bogus", env, opts()); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestNewAllSchemes(t *testing.T) {
	for _, name := range []string{"cl", "fl", "gsfl", "sfl", "sl"} {
		tr, err := sim.New(name, schemestest.NewEnv(2, 4, 30), opts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Name() != name || tr.Scheme() != name {
			t.Fatalf("trainer reports name %q / scheme %q, want %q", tr.Name(), tr.Scheme(), name)
		}
	}
}

func TestRunnerStreamsRoundEvents(t *testing.T) {
	tr, err := sim.New("gsfl", schemestest.NewEnv(3, 4, 30), opts())
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.RoundEvent
	curve, err := sim.NewRunner(tr,
		sim.WithRounds(6),
		sim.WithEvalEvery(2),
		sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
			events = append(events, e)
		})),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want one per round (6)", len(events))
	}
	elapsed := 0.0
	for i, e := range events {
		if e.Round != i+1 || e.Rounds != 6 || e.Scheme != "gsfl" {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if e.RoundSeconds <= 0 || e.Ledger.Total() != e.RoundSeconds {
			t.Fatalf("event %d: inconsistent latency %v vs ledger %v", i, e.RoundSeconds, e.Ledger.Total())
		}
		elapsed += e.RoundSeconds
		if e.ElapsedSeconds != elapsed {
			t.Fatalf("event %d: elapsed %v, want cumulative %v", i, e.ElapsedSeconds, elapsed)
		}
		wantEval := (i+1)%2 == 0 || i+1 == 6
		if (e.Eval != nil) != wantEval {
			t.Fatalf("event %d: eval presence %v, want %v", i, e.Eval != nil, wantEval)
		}
		if e.HostSeconds <= 0 {
			t.Fatalf("event %d: host wall-clock %v, want > 0", i, e.HostSeconds)
		}
	}
	if len(curve.Points) != 3 {
		t.Fatalf("curve has %d points, want evals at rounds 2, 4, 6", len(curve.Points))
	}
	for i, p := range curve.Points {
		e := events[p.Round-1]
		if e.Eval.Loss != p.Loss || e.Eval.Accuracy != p.Accuracy || e.ElapsedSeconds != p.LatencySeconds {
			t.Fatalf("curve point %d disagrees with its event: %+v vs %+v", i, p, e)
		}
	}
}

func TestRunnerCancelledMidRunReturnsCtxErr(t *testing.T) {
	tr, err := sim.New("gsfl", schemestest.NewEnv(4, 4, 30), opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	curve, err := sim.NewRunner(tr,
		sim.WithRounds(1000), // far more than we will allow to run
		sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
			rounds++
			if e.Round == 2 {
				cancel()
			}
		})),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if rounds != 2 {
		t.Fatalf("run continued for %d rounds after cancellation at round 2", rounds)
	}
	if curve == nil {
		t.Fatal("cancelled run must still return the partial curve")
	}
}

func TestRunnerAlreadyCancelledContext(t *testing.T) {
	tr, err := sim.New("sl", schemestest.NewEnv(5, 4, 30), opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.NewRunner(tr, sim.WithRounds(3)).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunnerCheckpointsIntoObserver: a cadence without a path encodes
// every checkpoint and hands it to the observers, writing no file; the
// bytes are what a path would have received, so a run resumes from them
// bit-identically.
func TestRunnerCheckpointsIntoObserver(t *testing.T) {
	const seed = 9
	run := func(extra ...sim.RunOption) (*sim.Curve, map[int][]byte) {
		tr, err := sim.New("gsfl", newTestEnv(t, seed), opts())
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]byte{}
		o := append([]sim.RunOption{sim.WithRounds(5), sim.WithCheckpointEvery(2),
			sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
				if e.Checkpoint != nil {
					got[e.Round] = append([]byte(nil), e.Checkpoint...)
				}
				if wantPath := len(extra) > 0 && e.Checkpoint != nil; (e.CheckpointPath != "") != wantPath {
					t.Errorf("round %d reports checkpoint path %q", e.Round, e.CheckpointPath)
				}
			}))}, extra...)
		curve, err := sim.NewRunner(tr, o...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return curve, got
	}
	want, sunk := run()
	if len(sunk) != 3 || sunk[2] == nil || sunk[4] == nil || sunk[5] == nil {
		t.Fatalf("%d checkpoints reached the observer, want rounds 2, 4 and the final 5", len(sunk))
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, filed := run(sim.WithCheckpointPath(path))
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(filed[5]) || string(filed[2]) != string(sunk[2]) {
		t.Fatal("the event's bytes are not the bytes the file received")
	}

	if err := os.WriteFile(path, sunk[2], 0o644); err != nil {
		t.Fatal(err)
	}
	runner, err := sim.Resume(path, newTestEnv(t, seed), sim.WithRounds(5), sim.WithCheckpointPath(""),
		sim.WithObserver(sim.ObserverFunc(func(sim.RoundEvent) {})))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("resumed curve has %d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d diverged after resuming from an observer's bytes", i)
		}
	}
	if left, _ := os.ReadFile(path); string(left) != string(sunk[2]) {
		t.Fatal("a resume told to keep its checkpoints off the disk rewrote the file it resumed from")
	}
}

func TestRunnerValidation(t *testing.T) {
	env := schemestest.NewEnv(6, 4, 30)
	tr, err := sim.New("gsfl", env, opts())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]sim.RunOption{
		"no rounds":           {},
		"bad eval cadence":    {sim.WithRounds(2), sim.WithEvalEvery(0)},
		"checkpoint, no path": {sim.WithRounds(2), sim.WithCheckpointEvery(1)},
		"path, no cadence":    {sim.WithRounds(2), sim.WithCheckpointPath("x.ckpt")},
	}
	for name, o := range cases {
		if _, err := sim.NewRunner(tr, o...).Run(context.Background()); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Checkpointing needs a registry-built trainer.
	bare, err := schemes.NewByName("sl", schemestest.NewEnv(6, 4, 30), schemes.FactoryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.NewRunner(bare,
		sim.WithRounds(2),
		sim.WithCheckpointEvery(1),
		sim.WithCheckpointPath(filepath.Join(t.TempDir(), "x.ckpt")),
	).Run(context.Background())
	if err == nil {
		t.Fatal("checkpointing a non-registry trainer must error")
	}
}

// newTestEnv builds the shared resume-test environment. Mobility and
// outages are enabled so the test covers the channel-state restoration
// path, not just the model weights.
func newTestEnv(t *testing.T, seed int64) *sim.Env {
	t.Helper()
	env := schemestest.NewEnv(seed, 4, 40)
	cfg := wireless.DefaultConfig()
	cfg.MobilitySigmaM = 15
	cfg.OutageProb = 0.05
	env.Channel = wireless.NewChannel(cfg, 4, seed+3)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestResumeEquivalence is the checkpoint contract test: for every
// built-in scheme, 8 straight rounds must be bit-identical — losses,
// accuracies, AND latencies — to 4 rounds, a checkpoint, and 4 resumed
// rounds on a freshly built world, whether the resume reads the file
// (Resume) or starts from its decoded bytes (ResumeFrom, which has no
// checkpoint path to report).
func TestResumeEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		scheme string
		opts   sim.Options
	}{
		{"gsfl", "gsfl", sim.Options{Groups: 2}},
		{"gsfl-pipelined-dropout", "gsfl", sim.Options{Groups: 2, Pipelined: true, DropoutProb: 0.2}},
		{"sl", "sl", sim.Options{}},
		{"fl", "fl", sim.Options{}},
		{"sfl", "sfl", sim.Options{}},
		{"cl", "cl", sim.Options{}},
	}
	const (
		seed      = 77
		total     = 8
		ckptRound = 4
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: one uninterrupted run.
			tr, err := sim.New(tc.scheme, newTestEnv(t, seed), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			straight := sim.NewRunner(tr, sim.WithRounds(total))
			want, err := straight.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantLedger, wantTotal := straight.Totals()

			// Interrupted: run to the checkpoint, drop everything, resume.
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			tr2, err := sim.New(tc.scheme, newTestEnv(t, seed), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.NewRunner(tr2,
				sim.WithRounds(ckptRound),
				sim.WithCheckpointEvery(ckptRound),
				sim.WithCheckpointPath(ckpt),
			).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := sim.Resume(ckpt, newTestEnv(t, seed), sim.WithRounds(total))
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sim.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Scheme != tc.scheme || cp.Round != ckptRound {
				t.Fatalf("decoded checkpoint of %q at round %d, want %q at %d", cp.Scheme, cp.Round, tc.scheme, ckptRound)
			}
			sunk := 0
			fromBytes, err := sim.ResumeFrom(cp, newTestEnv(t, seed), sim.WithRounds(total),
				sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
					if e.Checkpoint != nil {
						sunk++
					}
					if e.CheckpointPath != "" {
						t.Errorf("round %d of a ResumeFrom run reports checkpoint path %q", e.Round, e.CheckpointPath)
					}
				})))
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]*sim.Runner{"Resume": runner, "ResumeFrom": fromBytes} {
				got, err := r.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Points) != len(want.Points) {
					t.Fatalf("%s: resumed curve has %d points, want %d", name, len(got.Points), len(want.Points))
				}
				for i := range want.Points {
					if got.Points[i] != want.Points[i] {
						t.Fatalf("%s: point %d diverged after resume:\n  straight: %+v\n  resumed:  %+v",
							name, i, want.Points[i], got.Points[i])
					}
				}
				// The run's sums continue from the checkpoint's, bit for bit.
				if gotLedger, gotTotal := r.Totals(); gotLedger != wantLedger || gotTotal != wantTotal {
					t.Fatalf("%s: totals diverged after resume:\n  straight: %+v %v\n  resumed:  %+v %v",
						name, wantLedger, wantTotal, gotLedger, gotTotal)
				}
			}
			// The inherited cadence checkpoints the final round into the
			// observer alone.
			if sunk != 1 {
				t.Fatalf("ResumeFrom run handed its observer %d checkpoints, want the final round's", sunk)
			}
		})
	}
}

// TestResumeKeepsCheckpointing verifies a resumed run rewrites its
// checkpoint file, so a second interruption also resumes correctly.
func TestResumeKeepsCheckpointing(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	tr, err := sim.New("gsfl", newTestEnv(t, 9), sim.Options{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewRunner(tr,
		sim.WithRounds(2),
		sim.WithCheckpointEvery(2),
		sim.WithCheckpointPath(ckpt),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Resume 2 -> 4, checkpointing every round into the same file.
	runner, err := sim.Resume(ckpt, newTestEnv(t, 9),
		sim.WithRounds(4), sim.WithCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The rewritten file now holds round 4; resuming past it must work.
	runner2, err := sim.Resume(ckpt, newTestEnv(t, 9), sim.WithRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := runner2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if last := curve.Points[len(curve.Points)-1].Round; last != 5 {
		t.Fatalf("second resume ended at round %d, want 5", last)
	}
}

func TestResumeRejectsFinishedRun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	tr, err := sim.New("sl", newTestEnv(t, 10), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewRunner(tr,
		sim.WithRounds(2),
		sim.WithCheckpointEvery(1),
		sim.WithCheckpointPath(ckpt),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Resume(ckpt, newTestEnv(t, 10), sim.WithRounds(2)); err == nil {
		t.Fatal("resuming a finished run (rounds == completed) must error")
	}
	if _, err := sim.Resume(filepath.Join(t.TempDir(), "missing.ckpt"), newTestEnv(t, 10), sim.WithRounds(4)); err == nil {
		t.Fatal("resuming a missing file must error")
	}
}

// TestResumeRejectsMismatchedEnv pins the fingerprint check: resuming
// into a world built from a different spec must fail loudly instead of
// silently breaking the bit-identical contract.
func TestResumeRejectsMismatchedEnv(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	tr, err := sim.New("gsfl", newTestEnv(t, 11), sim.Options{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewRunner(tr,
		sim.WithRounds(2),
		sim.WithCheckpointEvery(1),
		sim.WithCheckpointPath(ckpt),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Different hyperparameters -> different fingerprint.
	other := newTestEnv(t, 11)
	other.Hyper.LR *= 2
	if _, err := sim.Resume(ckpt, other, sim.WithRounds(4)); err == nil {
		t.Fatal("resume into a different env must error")
	}
	// Different seed -> different fingerprint.
	if _, err := sim.Resume(ckpt, newTestEnv(t, 12), sim.WithRounds(4)); err == nil {
		t.Fatal("resume with a different seed must error")
	}
	// Different radio physics -> different fingerprint.
	physics := newTestEnv(t, 11)
	cfg := physics.Channel.Config()
	cfg.OutageProb = 0
	physics.Channel = wireless.NewChannel(cfg, 4, 11+3)
	if _, err := sim.Resume(ckpt, physics, sim.WithRounds(4)); err == nil {
		t.Fatal("resume under different wireless physics must error")
	}
}

// TestResumeInheritsCadences verifies a resumed run keeps the original
// evaluation cadence (so the final curve matches an uninterrupted run)
// and keeps checkpointing without re-passing the options.
func TestResumeInheritsCadences(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	tr, err := sim.New("sl", newTestEnv(t, 13), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewRunner(tr,
		sim.WithRounds(3),
		sim.WithEvalEvery(3),
		sim.WithCheckpointEvery(3),
		sim.WithCheckpointPath(ckpt),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runner, err := sim.Resume(ckpt, newTestEnv(t, 13), sim.WithRounds(6))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// EvalEvery 3 inherited: evaluations at rounds 3 and 6 only.
	if len(curve.Points) != 2 || curve.Points[0].Round != 3 || curve.Points[1].Round != 6 {
		t.Fatalf("resumed run did not inherit eval cadence: %+v", curve.Points)
	}
	// CkptEvery 3 inherited: the file now holds round 6.
	if _, err := sim.Resume(ckpt, newTestEnv(t, 13), sim.WithRounds(6)); err == nil {
		t.Fatal("checkpoint was not rewritten at round 6 (resume of a finished run should error)")
	}
}

// stateOf reads a trainer's state the way a checkpoint carries it:
// encoded from the live parts, decoded again.
func stateOf(t *testing.T, cp schemes.Checkpointer) *schemes.TrainerState {
	t.Helper()
	var e bincodec.Enc
	cp.StateParts().AppendState(&e)
	d := bincodec.NewDec("test", e.Buf)
	st := schemes.DecodeState(&d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestoreStateRejectsForeignState verifies a structurally foreign
// TrainerState errors without leaving a half-restored trainer.
func TestRestoreStateRejectsForeignState(t *testing.T) {
	mk := func() (*sim.SchemeTrainer, schemes.Checkpointer) {
		tr, err := sim.New("sl", schemestest.NewEnv(14, 4, 30), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tr, tr.Unwrap().(schemes.Checkpointer)
	}
	tr, cp := mk()
	before, err := tr.Evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A state from a wider model: same Models/Opts/Loaders arity, but
	// tensor sizes differ.
	otherEnv := schemestest.NewEnv(14, 4, 30)
	otherEnv.Arch = model.MLP(schemestest.BlobDim, 32, schemestest.BlobClasses)
	other, err := sim.New("sl", otherEnv, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := stateOf(t, other.Unwrap().(schemes.Checkpointer))
	if err := cp.StateParts().Restore(st); err == nil {
		t.Fatal("restoring a different-cut state must error")
	}
	after, err := tr.Evaluate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("failed restore mutated the trainer's model")
	}
}

// TestStateCodecAllSchemes pins the one trainer-state codec every
// scheme feeds: the round counter is saved by all five (sl and cl
// included), and a corrupt part is refused with an error naming the
// scheme, the part and its index.
func TestStateCodecAllSchemes(t *testing.T) {
	for _, scheme := range sim.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			mk := func() (*sim.SchemeTrainer, schemes.Checkpointer) {
				tr, err := sim.New(scheme, schemestest.NewEnv(21, 4, 30), opts())
				if err != nil {
					t.Fatal(err)
				}
				return tr, tr.Unwrap().(schemes.Checkpointer)
			}
			tr, cp := mk()
			if _, err := sim.NewRunner(tr, sim.WithRounds(3)).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			capture := func() *schemes.TrainerState { return stateOf(t, cp) }
			if st := capture(); st.Round != 3 {
				t.Fatalf("captured round %d after 3 rounds", st.Round)
			}
			corrupt := map[string]func(*schemes.TrainerState){
				scheme + " state has":   func(st *schemes.TrainerState) { st.Opts = st.Opts[1:] },
				scheme + " model 0":     func(st *schemes.TrainerState) { st.Models[0].Tensors = st.Models[0].Tensors[1:] },
				scheme + " optimizer 0": func(st *schemes.TrainerState) { st.Opts[0].Step = -1 },
				scheme + " loader 0":    func(st *schemes.TrainerState) { st.Loaders[0].Pos = -1 },
				scheme + " channel":     func(st *schemes.TrainerState) { st.Channel.Round = -1 },
			}
			for want, mutate := range corrupt {
				st := capture()
				mutate(st)
				_, fresh := mk()
				err := fresh.StateParts().Restore(st)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("restore error %v does not name %q", err, want)
				}
			}
			_, fresh := mk()
			if err := fresh.StateParts().Restore(capture()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeExtendsFinishedRunOnCadence pins the forced-final-eval
// case: finishing at an off-cadence round records an extra point, and a
// resume that extends the total must drop it so the stitched curve
// matches an uninterrupted run at the new total, bit for bit.
func TestResumeExtendsFinishedRunOnCadence(t *testing.T) {
	const seed = 15
	// Reference: uninterrupted 10 rounds, eval every 4 -> rounds 4, 8, 10.
	tr, err := sim.New("sl", newTestEnv(t, seed), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.NewRunner(tr,
		sim.WithRounds(10), sim.WithEvalEvery(4),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Finished 5-round run (forced eval at off-cadence round 5), then
	// extended to 10 via resume.
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	tr2, err := sim.New("sl", newTestEnv(t, seed), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewRunner(tr2,
		sim.WithRounds(5), sim.WithEvalEvery(4),
		sim.WithCheckpointEvery(5), sim.WithCheckpointPath(ckpt),
	).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runner, err := sim.Resume(ckpt, newTestEnv(t, seed), sim.WithRounds(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("extended curve has %d points, want %d (%+v)", len(got.Points), len(want.Points), got.Points)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d diverged: %+v vs %+v", i, got.Points[i], want.Points[i])
		}
	}
}
