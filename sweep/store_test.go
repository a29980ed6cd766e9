package sweep_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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
