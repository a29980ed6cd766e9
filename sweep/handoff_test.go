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
// the (checkpoint, sidecar) pair a killed execution would have left at
// every round boundary it saves — every one but the last round's, whose
// pair (taken from a run one round longer) no sink is handed — plus the
// checkpoints of the same cell trained under another scheme.
type handoffFixture struct {
	job    sweep.Job
	ref    sweep.JobResult
	ckpt   map[int][]byte
	prog   map[int]sweep.Progress
	slCkpt map[int][]byte
	// v1Ckpt and v2Ckpt are checkpoints in the retired formats (the gob
	// stream; the binary layout with an integer strategy), as a sweep
	// killed under an older binary leaves them.
	v1Ckpt, v2Ckpt []byte
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
	fx := handoffFixture{job: jobs[0], ckpt: map[int][]byte{}, prog: map[int]sweep.Progress{}, slCkpt: map[int][]byte{}}
	if fx.job.Scheme != "gsfl" || jobs[1].Scheme != "sl" {
		t.Fatalf("fixture grid expanded to %s, %s", fx.job.Scheme, jobs[1].Scheme)
	}
	var err error
	fx.ref, err = sweep.RunLeased(context.Background(), fx.job, 1, nil, sweep.LeaseCallbacks{
		OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
			fx.ckpt[p.Round] = append([]byte(nil), ckpt...)
			fx.prog[p.Round] = p
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The boundary after the last round is not saved: the newest pair a
	// crash between that round and the result leaves is round Rounds-1's.
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
			OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
				switch {
				case other.Scheme == "sl":
					fx.slCkpt[p.Round] = append([]byte(nil), ckpt...)
				case other.Scheme == "gsfl" && p.Round == handoffRounds:
					fx.ckpt[p.Round] = append([]byte(nil), ckpt...)
					fx.prog[p.Round] = p
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
	if fx.v1Ckpt, err = os.ReadFile(filepath.Join("..", "sim", "testdata", "checkpoint_v1.gob")); err != nil {
		t.Fatal(err)
	}
	if fx.v2Ckpt, err = os.ReadFile(filepath.Join("..", "sim", "testdata", "checkpoint_v2.bin")); err != nil {
		t.Fatal(err)
	}
	fx.sibling = jobsOf(t, sweep.Grid{
		Name: "h", Base: env.TestSpec(), Rounds: handoffRounds, EvalEvery: 1,
		Axes: sweep.Axes{Groups: []int{3}, Schemes: []string{"gsfl"}},
	})[0]
	return fx
}

// handoffCase is one state a killed execution (or a hostile disk) can
// leave behind: a pair, saved in the store as the boundary after round.
// prog nil means the sidecar is missing; resumeAt 0 means the handoff
// must be rejected.
type handoffCase struct {
	name     string
	round    int
	ckpt     []byte
	prog     *sweep.Progress
	resumeAt int
}

func (fx handoffFixture) cases() []handoffCase {
	p := func(r int) *sweep.Progress { v := fx.prog[r]; return &v }
	last := handoffRounds - 1
	return []handoffCase{
		{"sidecar one checkpoint behind", 2, fx.ckpt[2], p(1), 0},
		{"scheme mismatch", 2, fx.slCkpt[2], p(2), 0},
		{"checkpoint at Rounds", handoffRounds, fx.ckpt[handoffRounds], p(handoffRounds), 0},
		{"unreadable checkpoint", 2, []byte("not a checkpoint"), p(2), 0},
		{"parent-format (v1) checkpoint", 2, fx.v1Ckpt, p(2), 0},
		{"parent-format (v2) checkpoint", 2, fx.v2Ckpt, p(2), 0},
		{"sidecar missing", 2, fx.ckpt[2], nil, 0},
		{"valid handoff", 2, fx.ckpt[2], p(2), 2},
		// The last round ran and the result did not land: what is held is
		// the pair before it, and only that round is run again.
		{"crash after the last round", last, fx.ckpt[last], p(last), last},
	}
}

// siblingOptionsError is what a job handed its groups=2 sibling's pair
// must fail with: the pair is sound by the handoff rule (right scheme,
// right round, same world), so only the options clause of RunJob's
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

// slotFile is where a store rooted at dir keeps one file (ext "ckpt"
// or "progress") of the job's slot ("a" or "b").
func slotFile(dir string, j sweep.Job, slot, ext string) string {
	return filepath.Join(dir, "ckpt", fmt.Sprintf("%s.%s.%s", j.ID, slot, ext))
}

// saved is one boundary as a sink is handed it.
type saved struct {
	prog sweep.Progress
	ckpt []byte
}

// plantSlots saves each boundary in turn through a Store opened on dir,
// leaving what an execution of j killed after saving them leaves: the
// first in slot a, the second in slot b.
func plantSlots(t *testing.T, dir string, j sweep.Job, boundaries ...saved) {
	t.Helper()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, b := range boundaries {
		if err := store.SaveBoundary(j, b.prog, b.ckpt); err != nil {
			t.Fatal(err)
		}
	}
}

// plantSlot saves one boundary, as a killed execution would have left
// it, sound or not, in slot a; a nil prog is a record lost after the
// save, so the checkpoint stands alone.
func plantSlot(t *testing.T, dir string, j sweep.Job, round int, ckpt []byte, prog *sweep.Progress) {
	t.Helper()
	b := saved{prog: sweep.Progress{Round: round}, ckpt: ckpt}
	if prog != nil {
		b.prog = *prog
	}
	plantSlots(t, dir, j, b)
	if prog == nil {
		if err := os.Remove(slotFile(dir, j, "a", "progress")); err != nil {
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
			plantSlot(t, dir, fx.job, tc.round, tc.ckpt, tc.prog)
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
							t.Errorf("rejected handoff left its transient pair behind: %v", left)
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
		prog := fx.prog[2]
		plantSlot(t, dir, fx.sibling, 2, fx.ckpt[2], &prog)
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
			wantFiles = append(wantFiles, filepath.Base(slotFile(crashed, fx.job, slot, "ckpt")), filepath.Base(slotFile(crashed, fx.job, slot, "progress")))
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
			handoff := &sweep.Handoff{Ckpt: tc.ckpt}
			if tc.prog != nil {
				handoff.Progress = *tc.prog
			}
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
		handoff := &sweep.Handoff{Progress: fx.prog[2], Ckpt: fx.ckpt[2]}
		_, err := sweep.RunLeased(context.Background(), fx.sibling, 3, handoff, sweep.LeaseCallbacks{})
		requireSiblingRefused(t, err)
	})
}
