package sweep_test

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gsfl/env"
	"gsfl/internal/simnet"
	"gsfl/sweep"
)

// testGrid is a small 2x2 grid over the CI spec: 4 jobs, 3 rounds each.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Name: "t", Base: env.TestSpec(), Rounds: 3, EvalEvery: 1,
		Axes: sweep.Axes{
			Groups:  []int{1, 2},
			Schemes: []string{"gsfl", "sl"},
		},
	}
}

func jobsOf(t testing.TB, g sweep.Grid) []sweep.Job {
	t.Helper()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// readTree returns path->content for every file under dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runSweep(t *testing.T, jobs []sweep.Job, dir string, sched *sweep.Scheduler) []sweep.JobResult {
	t.Helper()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	res, err := sched.Run(context.Background(), jobs, store)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSchedulerDeterministicAcrossJobCounts is the tentpole contract: a
// grid run at Jobs=1 and Jobs=8 leaves byte-identical stores (manifest
// and every curve file) and returns identical results.
func TestSchedulerDeterministicAcrossJobCounts(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	d1, d8 := t.TempDir(), t.TempDir()
	r1 := runSweep(t, jobs, d1, &sweep.Scheduler{Jobs: 1})
	r8 := runSweep(t, jobs, d8, &sweep.Scheduler{Jobs: 8})

	t1, t8 := readTree(t, d1), readTree(t, d8)
	if len(t1) != len(t8) {
		t.Fatalf("stores differ in file count: %d vs %d", len(t1), len(t8))
	}
	for path, body := range t1 {
		if t8[path] != body {
			t.Fatalf("store file %s differs between Jobs=1 and Jobs=8", path)
		}
	}
	if len(r1) != len(r8) {
		t.Fatalf("result counts differ: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		a, b := r1[i], r8[i]
		if a.Job.ID != b.Job.ID || a.TotalSeconds != b.TotalSeconds {
			t.Fatalf("result %d differs: %+v vs %+v", i, a, b)
		}
		for _, c := range simnet.Components() {
			if a.Ledger.Get(c) != b.Ledger.Get(c) {
				t.Fatalf("result %d %s seconds differ: %v vs %v", i, c, a.Ledger.Get(c), b.Ledger.Get(c))
			}
		}
		if len(a.Curve.Points) != len(b.Curve.Points) {
			t.Fatalf("result %d curve lengths differ", i)
		}
		for p := range a.Curve.Points {
			if a.Curve.Points[p] != b.Curve.Points[p] {
				t.Fatalf("result %d point %d differs", i, p)
			}
		}
	}
}

// TestSchedulerDedupsSharedIDs: overlapping grids (fig2a ⊃ fig2b) must
// execute shared cells once and fan the result out to every position.
func TestSchedulerDedupsSharedIDs(t *testing.T) {
	spec := env.TestSpec()
	a := jobsOf(t, sweep.Grid{Name: "fig2a", Base: spec, Rounds: 2, EvalEvery: 1,
		Axes: sweep.Axes{Schemes: []string{"cl", "sl", "gsfl", "fl"}}})
	b := jobsOf(t, sweep.Grid{Name: "fig2b", Base: spec, Rounds: 2, EvalEvery: 1,
		Axes: sweep.Axes{Schemes: []string{"gsfl", "sl"}}})
	all := append(append([]sweep.Job{}, a...), b...)

	var started atomic.Int32
	sched := &sweep.Scheduler{
		Jobs: 2,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobStarted {
				started.Add(1)
			}
		})},
	}
	res, err := sched.Run(context.Background(), all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(started.Load()); got != len(a) {
		t.Fatalf("started %d jobs, want %d (fig2b cells must reuse fig2a's)", got, len(a))
	}
	if len(res) != len(all) {
		t.Fatalf("got %d results for %d job positions", len(res), len(all))
	}
	// fig2b/gsfl (position len(a)) must be the same result as fig2a's
	// gsfl cell (position 2).
	if res[len(a)].Curve.FinalAccuracy() != res[2].Curve.FinalAccuracy() {
		t.Fatal("deduplicated positions disagree")
	}
}

// TestSchedulerResumeSkipsCompleted: rerunning a finished sweep executes
// nothing and leaves the store untouched.
func TestSchedulerResumeSkipsCompleted(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	dir := t.TempDir()
	runSweep(t, jobs, dir, &sweep.Scheduler{Jobs: 2})
	before := readTree(t, dir)

	var started, skipped atomic.Int32
	sched := &sweep.Scheduler{
		Jobs: 2,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			switch e.Kind {
			case sweep.JobStarted:
				started.Add(1)
			case sweep.JobSkipped:
				skipped.Add(1)
			}
		})},
	}
	runSweep(t, jobs, dir, sched)
	if started.Load() != 0 || int(skipped.Load()) != len(jobs) {
		t.Fatalf("rerun started %d and skipped %d jobs, want 0/%d", started.Load(), skipped.Load(), len(jobs))
	}
	after := readTree(t, dir)
	for path, body := range before {
		if after[path] != body {
			t.Fatalf("rerun changed store file %s", path)
		}
	}
}

// TestSchedulerKilledSweepResumesIdentically cancels a sweep mid-run
// (after the first completed round, with per-round checkpointing), then
// resumes it and requires the final store to be byte-identical to an
// uninterrupted sweep's.
func TestSchedulerKilledSweepResumesIdentically(t *testing.T) {
	jobs := jobsOf(t, testGrid())

	refDir := t.TempDir()
	runSweep(t, jobs, refDir, &sweep.Scheduler{Jobs: 2, CheckpointEvery: 1})
	want := readTree(t, refDir)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sched := &sweep.Scheduler{
		Jobs:            2,
		CheckpointEvery: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			// Kill the sweep as soon as any job has progressed past its
			// first round: some jobs are then mid-flight with live
			// checkpoints, others untouched.
			if e.Kind == sweep.JobRound && e.Round >= 2 {
				cancel()
			}
		})},
	}
	if _, err := sched.Run(ctx, jobs, store); err == nil {
		t.Fatal("cancelled sweep must report an error")
	}
	store.Close()
	cancel()

	var resumed atomic.Int32
	store2, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	sched2 := &sweep.Scheduler{
		Jobs:            2,
		CheckpointEvery: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobResumed {
				resumed.Add(1)
			}
		})},
	}
	if _, err := sched2.Run(context.Background(), jobs, store2); err != nil {
		t.Fatal(err)
	}

	got := readTree(t, dir)
	if len(got) != len(want) {
		t.Fatalf("resumed store has %d files, want %d", len(got), len(want))
	}
	for path, body := range want {
		if got[path] != body {
			t.Fatalf("resumed store file %s differs from uninterrupted run", path)
		}
	}
	t.Logf("resumed %d mid-flight jobs from checkpoints", resumed.Load())
}

// TestStoreSurvivesPartialManifestLine: a crash mid-append leaves a
// truncated trailing line; reopening must keep the complete entries and
// rerunning must only redo the lost job.
func TestStoreSurvivesPartialManifestLine(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	dir := t.TempDir()
	runSweep(t, jobs, dir, &sweep.Scheduler{Jobs: 1})

	path := filepath.Join(dir, "manifest.jsonl")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last entry in half.
	if err := os.WriteFile(path, buf[:len(buf)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != len(jobs)-1 {
		t.Fatalf("store recovered %d entries, want %d", store.Len(), len(jobs)-1)
	}
	if _, err := (&sweep.Scheduler{Jobs: 1}).Run(context.Background(), jobs, store); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(buf) {
		t.Fatal("repaired manifest differs from the original")
	}
}

func TestSchedulerRejectsUnexpandedJobs(t *testing.T) {
	_, err := (&sweep.Scheduler{}).Run(context.Background(), []sweep.Job{{Name: "raw"}}, nil)
	if err == nil {
		t.Fatal("expected error for a job without an ID")
	}
}
