package atomicfile_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gsfl/env"
	"gsfl/internal/atomicfile"
	"gsfl/sim"
	"gsfl/sweep"
)

// The crash-point harness: one 6-round job checkpointing every round,
// killed at every boundary of every write of its transient pair, through
// both processes that write one — the Scheduler (the sim checkpoint and
// Store.SaveProgress) and the fleet coordinator (Store.WriteCheckpoint
// and Store.SaveProgress, fed by a lease). A killed process is a
// goroutine stopped inside the seam: nothing after the boundary runs
// until the assertions are over.

const crashRounds = 6

func crashJob(t *testing.T) sweep.Job {
	t.Helper()
	// What a crash leaves depends on the writes, not on what is trained:
	// the cheapest cell that still has a model and momentum to save.
	spec := env.TestSpec()
	spec.TrainPerClient = 8
	spec.TestPerClass = 1
	spec.Hyper.StepsPerClient = 1
	jobs, err := sweep.Grid{
		Name: "crash", Base: spec, Rounds: crashRounds, EvalEvery: 2,
		Axes: sweep.Axes{Groups: []int{2}, Schemes: []string{"gsfl"}},
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

// A driver runs the job to completion against an open store, as one of
// the two writers of transient pairs would.
type driver struct {
	name string
	run  func(t *testing.T, j sweep.Job, store *sweep.Store) error
}

var drivers = []driver{
	{"scheduler", func(_ *testing.T, j sweep.Job, store *sweep.Store) error {
		sched := &sweep.Scheduler{Jobs: 1, Workers: 1, CheckpointEvery: 1}
		_, err := sched.Run(context.Background(), []sweep.Job{j}, store)
		return err
	}},
	{"coordinator", func(t *testing.T, j sweep.Job, store *sweep.Store) error {
		res, err := sweep.RunLeased(context.Background(), j, t.TempDir(), 1, nil, sweep.LeaseCallbacks{
			// fleet's applyProgress: checkpoint first, then the sidecar.
			OnCheckpoint: func(p sweep.Progress, ckpt []byte) error {
				if err := store.WriteCheckpoint(j, ckpt); err != nil {
					return err
				}
				return store.SaveProgress(j, p)
			},
		})
		if err != nil {
			return err
		}
		if err := store.Record(res); err != nil {
			return err
		}
		return store.Compact([]sweep.Job{j})
	}},
}

func openStore(t *testing.T, dir string) *sweep.Store {
	t.Helper()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// fileOf names which half of the store's transient pair a write
// targets, "" for any other file (the compacted manifest, a parent-era
// worker's scratch checkpoint).
func fileOf(dir, path string) string {
	if filepath.Dir(path) != filepath.Join(dir, "ckpt") {
		return ""
	}
	switch filepath.Ext(path) {
	case ".ckpt":
		return "ckpt"
	case ".progress":
		return "progress"
	}
	return ""
}

// durable returns the bytes a completed sweep is judged by: the
// manifest and every curve.
func durable(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	paths, err := filepath.Glob(filepath.Join(dir, "curves", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(paths, filepath.Join(dir, "manifest.jsonl")) {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimPrefix(p, dir)] = string(buf)
	}
	return out
}

// reference is an uncrashed run: what each write of each transient file
// left on disk (index n-1 holds the n-th write, which at cadence 1 is
// round n's), and the durable bytes at the end.
type reference struct {
	writes  map[string][]string
	durable map[string]string
}

func uncrashed(t *testing.T, j sweep.Job, drv driver) reference {
	t.Helper()
	dir := t.TempDir()
	ref := reference{writes: map[string][]string{}}
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		if f := fileOf(dir, path); f != "" && b == atomicfile.Renamed {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			ref.writes[f] = append(ref.writes[f], string(buf))
		}
		return false
	})
	defer atomicfile.SetCrashAt(nil)
	store := openStore(t, dir)
	defer store.Close()
	if err := drv.run(t, j, store); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ckpt", "progress"} {
		if len(ref.writes[f]) != crashRounds {
			t.Fatalf("%s driver wrote %s %d times, want %d", drv.name, f, len(ref.writes[f]), crashRounds)
		}
	}
	ref.durable = durable(t, dir)
	return ref
}

// crashPoint is where a run dies: after boundary of the round-th write
// of file.
type crashPoint struct {
	round    int
	file     string
	boundary atomicfile.Boundary
}

func (cp crashPoint) String() string {
	return fmt.Sprintf("(round %d, %s, %v)", cp.round, cp.file, cp.boundary)
}

// crash runs the job against a fresh store in dir until it dies at cp,
// and returns with the dead process's locks released, as the kernel
// would leave them. bury lets the stopped goroutine unwind (every
// further write it attempts dies at once) and waits for it.
func crash(t *testing.T, j sweep.Job, drv driver, dir string, cp crashPoint) (bury func()) {
	t.Helper()
	var (
		mu      sync.Mutex
		writes  = map[string]int{}
		hit     = make(chan struct{})
		release = make(chan struct{})
		done    = make(chan error, 1)
	)
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		f := fileOf(dir, path)
		if f == "" {
			return false
		}
		mu.Lock()
		if b == atomicfile.TempCreated {
			writes[f]++
		}
		fire := f == cp.file && writes[f] == cp.round && b == cp.boundary
		mu.Unlock()
		if fire {
			close(hit)
			<-release
		}
		return fire
	})
	store := openStore(t, dir)
	go func() { done <- drv.run(t, j, store) }()
	bury = func() {
		atomicfile.SetCrashAt(func(string, atomicfile.Boundary) bool { return true })
		close(release)
		<-done
		atomicfile.SetCrashAt(nil)
	}
	select {
	case <-hit:
	case err := <-done:
		atomicfile.SetCrashAt(nil)
		store.Close()
		t.Fatalf("run ended (%v) without reaching crash point %v", err, cp)
	}
	atomicfile.SetCrashAt(nil)
	store.Close()
	return bury
}

func TestCrashPoints(t *testing.T) {
	j := crashJob(t)
	for _, drv := range drivers {
		ref := uncrashed(t, j, drv)
		for round := 1; round <= crashRounds; round++ {
			for _, file := range []string{"ckpt", "progress"} {
				for _, b := range atomicfile.Boundaries {
					cp := crashPoint{round, file, b}
					t.Run(fmt.Sprintf("%s/round%d/%s/%v", drv.name, round, file, b), func(t *testing.T) {
						checkCrashPoint(t, j, drv, ref, cp)
					})
				}
			}
		}
	}
}

func checkCrashPoint(t *testing.T, j sweep.Job, drv driver, ref reference, cp crashPoint) {
	dir := t.TempDir()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("crash at %v: %s\nreplay: go test ./internal/atomicfile -run '%s'",
			cp, fmt.Sprintf(format, args...), t.Name())
	}
	bury := crash(t, j, drv, dir, cp)
	defer bury()

	// The checkpoint is written before the sidecar, and a target changes
	// at the rename and nowhere else.
	held := map[string]int{"ckpt": cp.round, "progress": cp.round - 1}
	if cp.file == "ckpt" && cp.boundary != atomicfile.Renamed {
		held["ckpt"] = cp.round - 1
	}
	if cp.file == "progress" && cp.boundary == atomicfile.Renamed {
		held["progress"] = cp.round
	}
	for file, n := range held {
		path := filepath.Join(dir, "ckpt", j.ID+"."+file)
		got, err := os.ReadFile(path)
		switch {
		case n == 0 && !os.IsNotExist(err):
			fail("%s exists before its first write completed (%v)", file, err)
		case n > 0 && err != nil:
			fail("%s unreadable: %v", file, err)
		case n > 0 && string(got) != ref.writes[file][n-1]:
			fail("%s holds neither round %d's bytes nor any other whole write", file, n)
		}
		if file == "ckpt" && n > 0 {
			scheme, round, err := sim.PeekCheckpoint(path)
			if err != nil || scheme != j.Scheme || round != n {
				fail("PeekCheckpoint = (%q, %d, %v), want (%q, %d)", scheme, round, err, j.Scheme, n)
			}
		}
	}

	store := openStore(t, dir)
	err := drivers[0].run(t, j, store)
	store.Close()
	if err != nil {
		fail("rerun: %v", err)
	}
	got := durable(t, dir)
	if len(got) != len(ref.durable) {
		fail("rerun left %d durable files, want %d", len(got), len(ref.durable))
	}
	for path, body := range ref.durable {
		if got[path] != body {
			fail("rerun's %s differs from the uncrashed run's", path)
		}
	}
}

// TestOpenStoreRemovesCrashOrphans: a process killed between CreateTemp
// and Rename leaves its temp file in <store>/ckpt, and nothing but the
// next OpenStore — which holds the store's lock, so no live writer can
// own the file — is placed to remove it.
func TestOpenStoreRemovesCrashOrphans(t *testing.T) {
	j := crashJob(t)
	for _, cp := range []crashPoint{
		{2, "ckpt", atomicfile.AllWritten},
		{2, "progress", atomicfile.HalfWritten},
	} {
		t.Run(cp.file, func(t *testing.T) {
			dir := t.TempDir()
			defer crash(t, j, drivers[0], dir, cp)()
			temps := func() []string {
				names, err := filepath.Glob(filepath.Join(dir, "ckpt", ".*"))
				if err != nil {
					t.Fatal(err)
				}
				return names
			}
			if len(temps()) != 1 {
				t.Fatalf("crash at %v left temp files %v, want one orphan", cp, temps())
			}
			openStore(t, dir).Close()
			if left := temps(); len(left) != 0 {
				t.Fatalf("OpenStore kept the orphaned temp files %v", left)
			}
		})
	}
}
