package sweep_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gsfl/env"
	"gsfl/sweep"
)

// handoffFixture holds one 4-round job, its uninterrupted result, and
// the (checkpoint, sidecar) pair a killed execution would have left at
// every round boundary — plus a round-2 checkpoint of the same cell
// trained under another scheme.
type handoffFixture struct {
	job     sweep.Job
	ref     sweep.JobResult
	ckpt    map[int][]byte
	prog    map[int]sweep.Progress
	slCkpt2 []byte
	// v1Ckpt is a checkpoint in the retired gob format, as a sweep killed
	// under an older binary leaves one.
	v1Ckpt []byte
}

const handoffRounds = 4

func newHandoffFixture(t *testing.T) handoffFixture {
	t.Helper()
	jobs := jobsOf(t, sweep.Grid{
		Name: "h", Base: env.TestSpec(), Rounds: handoffRounds, EvalEvery: 1,
		Axes: sweep.Axes{Groups: []int{2}, Schemes: []string{"gsfl", "sl"}},
	})
	fx := handoffFixture{job: jobs[0], ckpt: map[int][]byte{}, prog: map[int]sweep.Progress{}}
	if fx.job.Scheme != "gsfl" || jobs[1].Scheme != "sl" {
		t.Fatalf("fixture grid expanded to %s, %s", fx.job.Scheme, jobs[1].Scheme)
	}
	var err error
	fx.ref, err = sweep.RunLeased(context.Background(), fx.job, t.TempDir(), 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			fx.ckpt[p.Round] = append([]byte(nil), ckpt...)
			fx.prog[p.Round] = p
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fx.ckpt) != handoffRounds {
		t.Fatalf("captured %d checkpoints, want %d", len(fx.ckpt), handoffRounds)
	}
	if _, err := sweep.RunLeased(context.Background(), jobs[1], t.TempDir(), 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			if p.Round == 2 {
				fx.slCkpt2 = append([]byte(nil), ckpt...)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if fx.v1Ckpt, err = os.ReadFile(filepath.Join("..", "sim", "testdata", "checkpoint_v1.gob")); err != nil {
		t.Fatal(err)
	}
	return fx
}

// handoffCase is one state a killed execution (or a hostile disk) can
// leave behind. prog nil means the sidecar is missing; resumeAt 0 means
// the handoff must be rejected.
type handoffCase struct {
	name     string
	ckpt     []byte
	prog     *sweep.Progress
	resumeAt int
}

func (fx handoffFixture) cases() []handoffCase {
	p := func(r int) *sweep.Progress { v := fx.prog[r]; return &v }
	return []handoffCase{
		{"sidecar one checkpoint behind", fx.ckpt[2], p(1), 0},
		{"scheme mismatch", fx.slCkpt2, p(2), 0},
		{"checkpoint at Rounds", fx.ckpt[handoffRounds], p(handoffRounds), 0},
		{"unreadable checkpoint", []byte("not a checkpoint"), p(2), 0},
		{"parent-format (v1) checkpoint", fx.v1Ckpt, p(2), 0},
		{"sidecar missing", fx.ckpt[2], nil, 0},
		{"valid handoff", fx.ckpt[2], p(2), 2},
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestHandoffRuleStoreSink drives the one resume rule through the
// Scheduler (store sink): every unsound pair is dropped before training
// starts and the job reruns from scratch; the sound pair resumes at its
// round; either way the store ends byte-equal to an uninterrupted run.
func TestHandoffRuleStoreSink(t *testing.T) {
	fx := newHandoffFixture(t)
	refDir := t.TempDir()
	runSweep(t, []sweep.Job{fx.job}, refDir, &sweep.Scheduler{Jobs: 1})
	want := readTree(t, refDir)

	for _, tc := range fx.cases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if err := store.WriteCheckpoint(fx.job, tc.ckpt); err != nil {
				t.Fatal(err)
			}
			if tc.prog != nil {
				if err := store.SaveProgress(fx.job, *tc.prog); err != nil {
					t.Fatal(err)
				}
			}
			ckptPath := store.CheckpointPath(fx.job)
			progPath := filepath.Join(dir, "ckpt", fx.job.ID+".progress")

			var kinds []sweep.EventKind
			resumedAt, firstRound := 0, 0
			// Cadence 3: a fresh run writes nothing before round 3, so at
			// its first round the only files that could exist are the
			// planted ones.
			sched := &sweep.Scheduler{Jobs: 1, CheckpointEvery: 3,
				Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
					kinds = append(kinds, e.Kind)
					switch {
					case e.Kind == sweep.JobResumed:
						resumedAt = e.Round
					case e.Kind == sweep.JobRound && firstRound == 0:
						firstRound = e.Round
						if tc.resumeAt == 0 && (exists(ckptPath) || exists(progPath)) {
							t.Errorf("rejected handoff left its transient pair behind")
						}
					}
				})}}
			if _, err := sched.Run(context.Background(), []sweep.Job{fx.job}, store); err != nil {
				t.Fatal(err)
			}
			if resumedAt != tc.resumeAt || firstRound != tc.resumeAt+1 {
				t.Fatalf("resumed after round %d, first trained round %d; want %d and %d",
					resumedAt, firstRound, tc.resumeAt, tc.resumeAt+1)
			}
			wantKinds := []sweep.EventKind{sweep.JobStarted}
			if tc.resumeAt > 0 {
				wantKinds = append(wantKinds, sweep.JobResumed)
			}
			for r := tc.resumeAt; r < handoffRounds; r++ {
				wantKinds = append(wantKinds, sweep.JobRound)
			}
			wantKinds = append(wantKinds, sweep.JobDone)
			if len(kinds) != len(wantKinds) {
				t.Fatalf("event sequence %v, want %v", kinds, wantKinds)
			}
			for i := range kinds {
				if kinds[i] != wantKinds[i] {
					t.Fatalf("event sequence %v, want %v", kinds, wantKinds)
				}
			}
			got := readTree(t, dir)
			if len(got) != len(want) {
				t.Fatalf("store has %d files, want %d", len(got), len(want))
			}
			for path, body := range want {
				if got[path] != body {
					t.Fatalf("store file %s differs from the uninterrupted run", path)
				}
			}
		})
	}
}

// TestHandoffRuleLeaseSink drives the same table through RunLeased
// (lease sink), where the sidecar arrives with the lease: a missing one
// is the zero Progress.
func TestHandoffRuleLeaseSink(t *testing.T) {
	fx := newHandoffFixture(t)
	want, err := json.Marshal(sweep.PartsOf(fx.ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fx.cases() {
		t.Run(tc.name, func(t *testing.T) {
			scratch := t.TempDir()
			handoff := &sweep.LeaseCheckpoint{Ckpt: tc.ckpt}
			if tc.prog != nil {
				handoff.Progress = *tc.prog
			}
			resumedAt, firstRound := 0, 0
			res, err := sweep.RunLeased(context.Background(), fx.job, scratch, 3, handoff, sweep.LeaseCallbacks{
				OnResumed: func(round int) { resumedAt = round },
				OnRound: func(round, rounds int, _ float64) {
					if firstRound != 0 {
						return
					}
					firstRound = round
					if tc.resumeAt == 0 && exists(filepath.Join(scratch, fx.job.ID+".ckpt")) {
						t.Errorf("rejected handoff left its staged checkpoint behind")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resumedAt != tc.resumeAt || firstRound != tc.resumeAt+1 {
				t.Fatalf("resumed after round %d, first trained round %d; want %d and %d",
					resumedAt, firstRound, tc.resumeAt, tc.resumeAt+1)
			}
			got, err := json.Marshal(sweep.PartsOf(res))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("result differs from the uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
