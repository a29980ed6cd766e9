package sweep_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/sweep"
)

// handoffFixture holds one 4-round job, its uninterrupted result, and
// the checkpoint a killed execution would have left at every round
// boundary it saves — every one but the last round's, whose checkpoint
// (taken from a run one round longer) no sink is handed — plus the
// checkpoints of the same cell trained under another scheme.
type handoffFixture struct {
	job    sweep.Job
	ref    sweep.JobResult
	ckpt   map[int][]byte
	slCkpt map[int][]byte
	// v1Ckpt, v2Ckpt and v3Ckpt are checkpoints in the retired formats
	// (the gob stream; the binary layout with an integer strategy; the
	// layout without the run's latency sums), as a sweep killed under an
	// older binary leaves them.
	v1Ckpt, v2Ckpt, v3Ckpt []byte
	// sibling is the job's groups=3 neighbour in the same world: the
	// environment fingerprint cannot tell their checkpoints apart.
	sibling sweep.Job
}

const handoffRounds = 4

func newHandoffFixture(t *testing.T) handoffFixture {
	t.Helper()
	jobs := jobsOf(t, sweep.Grid{
		Name: "h", Base: env.TestSpec(), Rounds: handoffRounds, EvalEvery: 1,
		Axes: sweep.Axes{Groups: []int{2}, Schemes: []string{"gsfl", "sl"}},
	})
	fx := handoffFixture{job: jobs[0], ckpt: map[int][]byte{}, slCkpt: map[int][]byte{}}
	if fx.job.Scheme != "gsfl" || jobs[1].Scheme != "sl" {
		t.Fatalf("fixture grid expanded to %s, %s", fx.job.Scheme, jobs[1].Scheme)
	}
	var err error
	fx.ref, err = sweep.RunLeased(context.Background(), fx.job, 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(round int, ckpt []byte) error {
			fx.ckpt[round] = append([]byte(nil), ckpt...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The boundary after the last round is not saved: the newest
	// checkpoint a crash between that round and the result leaves is
	// round Rounds-1's.
	if _, saved := fx.ckpt[handoffRounds]; saved || len(fx.ckpt) != handoffRounds-1 {
		t.Fatalf("captured checkpoints of %d rounds (last round's: %v), want rounds 1..%d",
			len(fx.ckpt), saved, handoffRounds-1)
	}
	longer := jobsOf(t, sweep.Grid{
		Name: "h", Base: env.TestSpec(), Rounds: handoffRounds + 1, EvalEvery: 1,
		Axes: sweep.Axes{Groups: []int{2}, Schemes: []string{"gsfl"}},
	})
	for _, other := range []sweep.Job{jobs[1], longer[0]} {
		if _, err := sweep.RunLeased(context.Background(), other, 1, nil, sweep.LeaseCallbacks{
			OnCheckpoint: func(round int, ckpt []byte) error {
				switch {
				case other.Scheme == "sl":
					fx.slCkpt[round] = append([]byte(nil), ckpt...)
				case other.Scheme == "gsfl" && round == handoffRounds:
					fx.ckpt[round] = append([]byte(nil), ckpt...)
				}
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(fx.slCkpt) != handoffRounds-1 || fx.ckpt[handoffRounds] == nil {
		t.Fatal("fixture runs did not reach the boundaries they are run for")
	}
	for name, dst := range map[string]*[]byte{
		"checkpoint_v1.gob": &fx.v1Ckpt, "checkpoint_v2.bin": &fx.v2Ckpt, "checkpoint_v3.bin": &fx.v3Ckpt,
	} {
		if *dst, err = os.ReadFile(filepath.Join("..", "sim", "testdata", name)); err != nil {
			t.Fatal(err)
		}
	}
	fx.sibling = jobsOf(t, sweep.Grid{
		Name: "h", Base: env.TestSpec(), Rounds: handoffRounds, EvalEvery: 1,
		Axes: sweep.Axes{Groups: []int{3}, Schemes: []string{"gsfl"}},
	})[0]
	return fx
}

// handoffCase is one state a killed execution (or a hostile disk) can
// leave behind: a checkpoint, saved in the store as a boundary.
// resumeAt 0 means the handoff must be rejected.
type handoffCase struct {
	name     string
	ckpt     []byte
	resumeAt int
}

func (fx handoffFixture) cases() []handoffCase {
	last := handoffRounds - 1
	return []handoffCase{
		{"scheme mismatch", fx.slCkpt[2], 0},
		{"checkpoint at Rounds", fx.ckpt[handoffRounds], 0},
		{"unreadable checkpoint", []byte("not a checkpoint"), 0},
		{"parent-format (v1) checkpoint", fx.v1Ckpt, 0},
		{"parent-format (v2) checkpoint", fx.v2Ckpt, 0},
		{"parent-format (v3) checkpoint", fx.v3Ckpt, 0},
		// A sound header over a body that does not decode: no kill
		// leaves one (a slot's CRC covers the whole checkpoint), so it is
		// dropped at the resume, and the job reruns from round 0.
		{"checkpoint body unreadable", fx.ckpt[2][:len(fx.ckpt[2])-1], 0},
		{"valid handoff", fx.ckpt[2], 2},
		// The last round ran and the result did not land: what is held is
		// the boundary before it, and only that round is run again.
		{"crash after the last round", fx.ckpt[last], last},
	}
}

// siblingOptionsError is what a job handed its groups=2 sibling's
// checkpoint must fail with: it is sound by the handoff rule (right
// scheme, a round still to run, same world), so only the options clause of RunJob's
// assertion stands between the job and a result trained under the
// file's options and recorded under its own ID.
const siblingOptionsError = "checkpoint trains under options {Groups:2 Strategy:round-robin Pipelined:false DropoutProb:0}, " +
	"job wants {Groups:3 Strategy:round-robin Pipelined:false DropoutProb:0}"

func requireSiblingRefused(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), siblingOptionsError) {
		t.Fatalf("a sibling cell's checkpoint: error %v, want one containing %q", err, siblingOptionsError)
	}
}

// slotFile is where a store rooted at dir keeps the job's slot ("a" or
// "b").
func slotFile(dir string, j sweep.Job, slot string) string {
	return filepath.Join(dir, "ckpt", fmt.Sprintf("%s.%s.ckpt", j.ID, slot))
}

// plantSlots saves each checkpoint in turn through a Store opened on
// dir, leaving what an execution of j killed after saving them leaves:
// the first in slot a, the second in slot b.
func plantSlots(t *testing.T, dir string, j sweep.Job, ckpts ...[]byte) {
	t.Helper()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, ckpt := range ckpts {
		if err := store.SaveBoundary(j, ckpt); err != nil {
			t.Fatal(err)
		}
	}
}

// requireStore fails unless the store rooted at dir holds exactly the
// files of an uninterrupted run — so nothing under ckpt/.
func requireStore(t *testing.T, want map[string]string, dir string) {
	t.Helper()
	got := readTree(t, dir)
	if len(got) != len(want) {
		t.Fatalf("store has %d files, want %d", len(got), len(want))
	}
	for path, body := range want {
		if got[path] != body {
			t.Fatalf("store file %s differs from the uninterrupted run", path)
		}
	}
}

// ckptFiles lists what a store rooted at dir holds under ckpt/.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestHandoffRuleStoreSink drives the one resume rule through the
// Scheduler (store sink): every unsound checkpoint is dropped before
// training starts and the job reruns from scratch; a sound one resumes
// at its round; either way the store ends byte-equal to an
// uninterrupted run.
func TestHandoffRuleStoreSink(t *testing.T) {
	fx := newHandoffFixture(t)
	refDir := t.TempDir()
	runSweep(t, []sweep.Job{fx.job}, refDir, &sweep.Scheduler{Jobs: 1})
	want := readTree(t, refDir)

	for _, tc := range fx.cases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantSlots(t, dir, fx.job, tc.ckpt)
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

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
						if left := ckptFiles(t, dir); tc.resumeAt == 0 && len(left) != 0 {
							t.Errorf("rejected handoff left its transient slot behind: %v", left)
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
			requireStore(t, want, dir)
		})
	}

	t.Run("sibling cell's checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		plantSlots(t, dir, fx.sibling, fx.ckpt[2])
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		_, err = (&sweep.Scheduler{Jobs: 1, CheckpointEvery: 3}).Run(context.Background(), []sweep.Job{fx.sibling}, store)
		requireSiblingRefused(t, err)
	})

	// The last case again, the slots not planted but taken from a live
	// store at the instant its last round ends: the Scheduler must not
	// have superseded the last boundary a job can resume from. Rounds 1,
	// 2 and 3 went to slots a, b and a.
	t.Run("crash after the last round, as a live run leaves it", func(t *testing.T) {
		live, crashed := t.TempDir(), t.TempDir()
		runSweep(t, []sweep.Job{fx.job}, live, &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1,
			Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
				if e.Kind != sweep.JobRound || e.Round != handoffRounds {
					return
				}
				for _, name := range ckptFiles(t, live) {
					buf, err := os.ReadFile(filepath.Join(live, "ckpt", name))
					if err != nil {
						t.Error(err)
					}
					if err := os.MkdirAll(filepath.Join(crashed, "ckpt"), 0o755); err != nil {
						t.Error(err)
					}
					if err := os.WriteFile(filepath.Join(crashed, "ckpt", name), buf, 0o644); err != nil {
						t.Error(err)
					}
				}
			})}})
		last := handoffRounds - 1
		var wantFiles []string
		for _, slot := range []string{"a", "b"} {
			wantFiles = append(wantFiles, filepath.Base(slotFile(crashed, fx.job, slot)))
		}
		if got := ckptFiles(t, crashed); fmt.Sprint(got) != fmt.Sprint(wantFiles) {
			t.Fatalf("after the last round ckpt/ held %v, want %v", got, wantFiles)
		}
		resumedAt := -1
		runSweep(t, []sweep.Job{fx.job}, crashed, &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1,
			Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
				if e.Kind == sweep.JobResumed {
					resumedAt = e.Round
				}
			})}})
		if resumedAt != last {
			t.Fatalf("resumed after round %d, want %d", resumedAt, last)
		}
		requireStore(t, want, crashed)
	})
}

// TestHandoffRuleLeaseSink drives the same table through RunLeased
// (lease sink), where the checkpoint arrives with the lease.
func TestHandoffRuleLeaseSink(t *testing.T) {
	fx := newHandoffFixture(t)
	want, err := json.Marshal(sweep.PartsOf(fx.ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fx.cases() {
		t.Run(tc.name, func(t *testing.T) {
			handoff := &sweep.Handoff{Ckpt: tc.ckpt}
			resumedAt, firstRound := 0, 0
			res, err := sweep.RunLeased(context.Background(), fx.job, 3, handoff, sweep.LeaseCallbacks{
				OnResumed: func(round int) { resumedAt = round },
				OnRound: func(round, rounds int, _ float64) {
					if firstRound == 0 {
						firstRound = round
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

	t.Run("sibling cell's checkpoint", func(t *testing.T) {
		handoff := &sweep.Handoff{Ckpt: fx.ckpt[2]}
		_, err := sweep.RunLeased(context.Background(), fx.sibling, 3, handoff, sweep.LeaseCallbacks{})
		requireSiblingRefused(t, err)
	})
}
