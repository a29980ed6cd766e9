package sweep_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gsfl/sweep"
)

// TestOpenStoreExclusiveLock: a store held open by one owner (in the
// fleet, the coordinator) must refuse a second opener with
// ErrStoreLocked, and admit it again once the first closes.
func TestOpenStoreExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.OpenStore(dir); !errors.Is(err, sweep.ErrStoreLocked) {
		t.Fatalf("second open got %v, want ErrStoreLocked", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s2.Close()
}

// TestOpenStoreWaitsOutCompactRename: Compact replaces the manifest by
// rename; a reader that observes the window where the old name is gone
// (unlink+link filesystems) must wait for the new file — the visible
// .manifest-* temp distinguishes the in-flight swap from a fresh store.
func TestOpenStoreWaitsOutCompactRename(t *testing.T) {
	dir := t.TempDir()
	line, err := json.Marshal(sweep.Entry{ID: "job-1", Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".manifest-123")
	if err := os.WriteFile(tmp, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		os.Rename(tmp, filepath.Join(dir, "manifest.jsonl"))
	}()
	s, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("store loaded %d entries through the rename window, want 1", s.Len())
	}
}

// TestOpenStoreSeesRenameLandingBetweenItsTwoLooks is the window the
// test above used to hit one run in a few hundred: the manifest is
// absent when OpenStore looks for it, Compact's rename lands, and the
// temp file is gone when OpenStore looks for that — neither look finds
// anything, yet the store is complete, and treating it as fresh would
// rerun every finished job. The seam performs the rename at exactly
// that point.
func TestOpenStoreSeesRenameLandingBetweenItsTwoLooks(t *testing.T) {
	dir := t.TempDir()
	line, err := json.Marshal(sweep.Entry{ID: "job-1", Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".manifest-123")
	if err := os.WriteFile(tmp, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep.SetAfterManifestMiss(func() {
		if err := os.Rename(tmp, filepath.Join(dir, "manifest.jsonl")); err != nil {
			t.Error(err)
		}
	})
	defer sweep.SetAfterManifestMiss(nil)
	s, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("store loaded %d entries when the rename landed between the open and the glob, want 1", s.Len())
	}
}

// TestOpenStoreFreshDirIsNotRetried: no manifest and no compact temp
// file is simply a new store, not a rename in flight.
func TestOpenStoreFreshDirIsNotRetried(t *testing.T) {
	start := time.Now()
	s, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fresh open took %v — the rename retry loop must not trigger", d)
	}
}

// TestStoreTimingsLifecycle: recorded host timings survive a reopen (so
// a resumed sweep can seed its ETA from completed jobs) and are erased
// by Compact (so a completed store's bytes stay machine-independent).
func TestStoreTimingsLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordTiming("job-1", 2.5); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.HostSecondsOf("job-1"); !ok || v != 2.5 {
		t.Fatalf("HostSecondsOf = %v, %v; want 2.5, true", v, ok)
	}
	s.Close()

	s, err = sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok := s.HostSecondsOf("job-1"); !ok || v != 2.5 {
		t.Fatalf("after reopen HostSecondsOf = %v, %v; want 2.5, true", v, ok)
	}
	if err := s.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.HostSecondsOf("job-1"); ok {
		t.Fatal("timing survived Compact")
	}
	if _, err := os.Stat(filepath.Join(dir, "timings.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("timings sidecar still on disk after Compact: %v", err)
	}
}

// TestSkippedJobsCarryHostSeconds: on resume, JobSkipped events report
// the job's recorded host cost so a progress observer can seed its ETA
// from completed work instead of starting at zero.
func TestSkippedJobsCarryHostSeconds(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := (&sweep.Scheduler{Jobs: 1}).Run(context.Background(), jobs[:1], store); err != nil {
		t.Fatal(err)
	}
	// The completed sub-sweep compacted away its timings; re-record one
	// as a killed-mid-sweep store would still hold it.
	if err := store.RecordTiming(jobs[0].ID, 3.25); err != nil {
		t.Fatal(err)
	}

	var got float64
	sched := &sweep.Scheduler{
		Jobs: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobSkipped && e.Job.ID == jobs[0].ID {
				got = e.HostSeconds
			}
		})},
	}
	if _, err := sched.Run(context.Background(), jobs, store); err != nil {
		t.Fatal(err)
	}
	if got != 3.25 {
		t.Fatalf("JobSkipped.HostSeconds = %v, want 3.25", got)
	}
}

// TestLoadBoundaryPicksNewestSoundGeneration: what a killed run leaves
// under ckpt/ is a set of generations, and the pair load takes the
// newest one the resume rule accepts and removes every other file of
// the job — whatever made the newer ones unsound.
func TestLoadBoundaryPicksNewestSoundGeneration(t *testing.T) {
	fx := newHandoffFixture(t)
	p := func(r int) *sweep.Progress { v := fx.prog[r]; return &v }
	for _, tc := range []struct {
		name string
		ckpt []byte          // generation 3's checkpoint
		prog *sweep.Progress // and its sidecar
	}{
		{"sidecar missing", fx.ckpt[3], nil},
		{"checkpoint torn", fx.ckpt[3][:len(fx.ckpt[3])/2], p(3)},
		{"scheme mismatch", fx.slCkpt[3], p(3)},
		{"sidecar round is not the file name's", fx.ckpt[2], p(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantGen(t, dir, fx.job, 1, fx.ckpt[1], p(1))
			plantGen(t, dir, fx.job, 2, fx.ckpt[2], p(2))
			plantGen(t, dir, fx.job, 3, tc.ckpt, tc.prog)
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			got, path, ok := store.LoadBoundary(fx.job)
			if !ok || got.Round != 2 || path != genFile(dir, fx.job, 2, "ckpt") {
				t.Fatalf("LoadBoundary = (round %d, %s, %v), want generation 2", got.Round, path, ok)
			}
			want := []string{filepath.Base(genFile(dir, fx.job, 2, "ckpt")), filepath.Base(genFile(dir, fx.job, 2, "progress"))}
			if left := ckptFiles(t, dir); fmt.Sprint(left) != fmt.Sprint(want) {
				t.Fatalf("ckpt/ holds %v after the load, want %v", left, want)
			}
		})
	}

	t.Run("orphan checkpoint alone", func(t *testing.T) {
		dir := t.TempDir()
		plantGen(t, dir, fx.job, 2, fx.ckpt[2], nil)
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if _, _, ok := store.LoadBoundary(fx.job); ok {
			t.Fatal("a checkpoint without a sidecar was offered as a handoff")
		}
		if left := ckptFiles(t, dir); len(left) != 0 {
			t.Fatalf("ckpt/ holds %v after the load, want nothing", left)
		}
	})

	// A pair in the fixed-name layout of the binaries before generations
	// is not read: OpenStore removes it and the job runs from round 1.
	t.Run("parent-layout pair", func(t *testing.T) {
		dir := t.TempDir()
		plantGen(t, dir, fx.job, 2, nil, nil) // ckpt/ itself
		buf, err := json.Marshal(fx.prog[2])
		if err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string][]byte{fx.job.ID + ".ckpt": fx.ckpt[2], fx.job.ID + ".progress": buf} {
			if err := os.WriteFile(filepath.Join(dir, "ckpt", name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if left := ckptFiles(t, dir); len(left) != 0 {
			t.Fatalf("OpenStore kept %v", left)
		}
		first := 0
		sched := &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1,
			Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
				if e.Kind == sweep.JobResumed {
					t.Errorf("resumed after round %d from a parent-layout pair", e.Round)
				}
				if e.Kind == sweep.JobRound && first == 0 {
					first = e.Round
				}
			})}}
		if _, err := sched.Run(context.Background(), []sweep.Job{fx.job}, store); err != nil {
			t.Fatal(err)
		}
		if first != 1 {
			t.Fatalf("first trained round %d, want 1", first)
		}
	})

	// One job's listing is its own files: not another job's, and not a
	// name that merely starts with its ID.
	t.Run("another job's files", func(t *testing.T) {
		dir := t.TempDir()
		other := fx.job
		other.ID = fx.job.ID + ".1" // <id>.1.2.ckpt is this job's round 2, not fx.job's
		third := fx.job
		third.ID = "z" + fx.job.ID[1:]
		plantGen(t, dir, fx.job, 2, fx.ckpt[2], p(2))
		plantGen(t, dir, other, 2, fx.ckpt[2], p(2))
		plantGen(t, dir, third, 3, fx.ckpt[3], p(3))
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		foreign := []string{
			filepath.Base(genFile(dir, other, 2, "ckpt")), filepath.Base(genFile(dir, other, 2, "progress")),
			filepath.Base(genFile(dir, third, 3, "ckpt")), filepath.Base(genFile(dir, third, 3, "progress")),
		}
		sort.Strings(foreign)
		if got, _, ok := store.LoadBoundary(fx.job); !ok || got.Round != 2 {
			t.Fatalf("LoadBoundary = (round %d, %v), want the job's own generation 2", got.Round, ok)
		}
		if left := ckptFiles(t, dir); len(left) != len(foreign)+2 {
			t.Fatalf("ckpt/ holds %v after the load, want all six files", left)
		}
		store.DropTransient(fx.job)
		if left := ckptFiles(t, dir); fmt.Sprint(left) != fmt.Sprint(foreign) {
			t.Fatalf("ckpt/ holds %v after the job's drop, want %v", left, foreign)
		}
	})
}

// BenchmarkStoreBoundary is one boundary of an in-flight job: a 200 KB
// checkpoint and its sidecar written into a store that holds the
// boundary before, which the write supersedes.
func BenchmarkStoreBoundary(b *testing.B) {
	store, err := sweep.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	j := sweep.Job{ID: "0123456789abcdef"}
	ckpt := make([]byte, 200<<10)
	p := sweep.Progress{Components: map[string]float64{"client-compute": 1, "uplink": 2, "relay": 3}, TotalSeconds: 6}
	save := func(round int) {
		p.Round = round
		if err := store.SaveBoundary(j, p, ckpt); err != nil {
			b.Fatal(err)
		}
	}
	save(1)
	b.SetBytes(int64(len(ckpt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save(i + 2)
	}
}
