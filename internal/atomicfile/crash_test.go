package atomicfile_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gsfl/env"
	"gsfl/fleet"
	"gsfl/internal/atomicfile"
	"gsfl/sim"
	"gsfl/sweep"
)

// The crash-point harness: one 7-round job checkpointing every round —
// six saved boundaries, the last round's is never saved — killed at
// every boundary of every write of a generation and between the unlinks
// of the one before, through both processes that write them: the
// Scheduler and the fleet coordinator (fed by one worker over
// loopback), each one Store.SaveBoundary per boundary. A killed process
// is a goroutine stopped inside the seam: nothing after the boundary
// runs until the assertions are over — a stopped coordinator holds its
// lock, so its worker just waits for an ack.

const (
	crashRounds = 7
	// savedBoundaries is how many generations an uncrashed run writes.
	savedBoundaries = crashRounds - 1
)

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
		c, err := fleet.Serve("127.0.0.1:0", []sweep.Job{j}, store, fleet.Config{CheckpointEvery: 1})
		if err != nil {
			return err
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cfg := fleet.WorkerConfig{Addr: c.Addr().String(), ScratchDir: t.TempDir()}
		worker := make(chan error, 1)
		go func() { worker <- fleet.RunWorker(ctx, cfg) }()
		_, err = c.Wait(ctx)
		cancel()
		<-worker
		return err
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

// genOf names which half ("ckpt" or "progress") of which generation of
// the store's transient pair a write targets; file is "" for any other
// path (the compacted manifest).
func genOf(dir, path string) (file string, round int) {
	if filepath.Dir(path) != filepath.Join(dir, "ckpt") {
		return "", 0
	}
	parts := strings.Split(filepath.Base(path), ".")
	if len(parts) != 3 || (parts[2] != "ckpt" && parts[2] != "progress") {
		return "", 0
	}
	round, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0
	}
	return parts[2], round
}

// genPath is genOf's inverse for job j.
func genPath(dir string, j sweep.Job, round int, file string) string {
	return filepath.Join(dir, "ckpt", fmt.Sprintf("%s.%d.%s", j.ID, round, file))
}

// ckptNames lists what the store rooted at dir holds under ckpt/.
func ckptNames(t *testing.T, dir string) []string {
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

// reference is an uncrashed run: what each generation's two writes left
// on disk, by file and round, and the durable bytes at the end.
type reference struct {
	writes  map[string]map[int]string
	durable map[string]string
}

func uncrashed(t *testing.T, j sweep.Job, drv driver) reference {
	t.Helper()
	dir := t.TempDir()
	ref := reference{writes: map[string]map[int]string{"ckpt": {}, "progress": {}}}
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		if f, round := genOf(dir, path); f != "" && b == atomicfile.Renamed {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			ref.writes[f][round] = string(buf)
		}
		return false
	})
	defer atomicfile.SetCrashAt(nil)
	store := openStore(t, dir)
	defer store.Close()
	if err := drv.run(t, j, store); err != nil {
		t.Fatal(err)
	}
	for f, byRound := range ref.writes {
		if _, last := byRound[crashRounds]; last || len(byRound) != savedBoundaries {
			t.Fatalf("%s driver wrote %s for %d rounds (the last round's: %v), want rounds 1..%d",
				drv.name, f, len(byRound), last, savedBoundaries)
		}
	}
	ref.durable = durable(t, dir)
	return ref
}

// crashPoint is where a run dies: after boundary of the write of file
// in generation round — or, file "unlink", after that generation's
// sidecar landed and the generation before lost the files unlinked
// names (see unlinks).
type crashPoint struct {
	round    int
	file     string
	boundary atomicfile.Boundary
	unlinked string
}

// unlinks are the states between a generation's commit and the end of
// its boundary: the store unlinks the two files of the generation
// before, and a kill can land after either. os.Remove has no seam, so
// the harness stops the run at the commit and removes the files itself
// — either one alone, so that no order of the two is assumed, and both.
var (
	unlinkStates = []string{"prev-sidecar-gone", "prev-checkpoint-gone", "prev-pair-gone"}
	unlinks      = map[string][]string{
		"prev-sidecar-gone":    {"progress"},
		"prev-checkpoint-gone": {"ckpt"},
		"prev-pair-gone":       {"progress", "ckpt"},
	}
)

func (cp crashPoint) String() string {
	if cp.file == "unlink" {
		return fmt.Sprintf("(round %d, unlink, %s)", cp.round, cp.unlinked)
	}
	return fmt.Sprintf("(round %d, %s, %v)", cp.round, cp.file, cp.boundary)
}

// crash runs the job against a fresh store in dir until it dies at cp,
// and returns with the dead process's locks released, as the kernel
// would leave them. bury lets the stopped goroutine unwind (every
// further write it attempts dies at once) and waits for it.
func crash(t *testing.T, j sweep.Job, drv driver, dir string, cp crashPoint) (bury func()) {
	t.Helper()
	at := cp
	if cp.file == "unlink" {
		at.file, at.boundary = "progress", atomicfile.Renamed
	}
	var (
		hit     = make(chan struct{})
		release = make(chan struct{})
		done    = make(chan error, 1)
	)
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		f, round := genOf(dir, path)
		fire := f == at.file && round == at.round && b == at.boundary
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
	for _, f := range unlinks[cp.unlinked] {
		if err := os.Remove(genPath(dir, j, cp.round-1, f)); err != nil {
			t.Fatalf("crash point %v: the generation before is not whole at the commit: %v", cp, err)
		}
	}
	return bury
}

func TestCrashPoints(t *testing.T) {
	j := crashJob(t)
	for _, drv := range drivers {
		ref := uncrashed(t, j, drv)
		for round := 1; round <= savedBoundaries; round++ {
			for _, file := range []string{"ckpt", "progress"} {
				for _, b := range atomicfile.Boundaries {
					cp := crashPoint{round: round, file: file, boundary: b}
					t.Run(fmt.Sprintf("%s/round%d/%s/%v", drv.name, round, file, b), func(t *testing.T) {
						checkCrashPoint(t, j, drv, ref, cp)
					})
				}
			}
			for _, state := range unlinkStates {
				if round == 1 {
					break // nothing before the first generation
				}
				cp := crashPoint{round: round, file: "unlink", unlinked: state}
				t.Run(fmt.Sprintf("%s/round%d/unlink/%s", drv.name, round, state), func(t *testing.T) {
					checkCrashPoint(t, j, drv, ref, cp)
				})
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

	// A generation is committed by its sidecar's rename and by nothing
	// before it; a name comes to exist at its rename, whole.
	committed := cp.file == "unlink" || (cp.file == "progress" && cp.boundary == atomicfile.Renamed)
	newest := cp.round - 1
	if committed {
		newest = cp.round
	}
	for _, file := range []string{"ckpt", "progress"} {
		path := genPath(dir, j, cp.round, file)
		got, err := os.ReadFile(path)
		landed := committed || (file == "ckpt" && (cp.file == "progress" || cp.boundary == atomicfile.Renamed))
		switch {
		case !landed && !os.IsNotExist(err):
			fail("%s exists before its rename (%v)", filepath.Base(path), err)
		case landed && err != nil:
			fail("%s unreadable after its rename: %v", filepath.Base(path), err)
		case landed && string(got) != ref.writes[file][cp.round]:
			fail("%s does not hold round %d's bytes", filepath.Base(path), cp.round)
		}
	}
	if newest > 0 {
		// The newest committed pair is whole, whatever is torn around it.
		for _, file := range []string{"ckpt", "progress"} {
			got, err := os.ReadFile(genPath(dir, j, newest, file))
			if err != nil || string(got) != ref.writes[file][newest] {
				fail("generation %d's %s is not whole (%v)", newest, file, err)
			}
		}
		path := genPath(dir, j, newest, "ckpt")
		if scheme, round, err := sim.PeekCheckpoint(path); err != nil || scheme != j.Scheme || round != newest {
			fail("PeekCheckpoint = (%q, %d, %v), want (%q, %d)", scheme, round, err, j.Scheme, newest)
		}
	}

	// The rerun resumes from that pair — every crash from round 2 on has
	// one — and ends where the uncrashed run did, nothing left behind.
	resumedFrom := 0
	store := openStore(t, dir)
	_, err := (&sweep.Scheduler{Jobs: 1, Workers: 1, CheckpointEvery: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobResumed {
				resumedFrom = e.Round
			}
		})}}).Run(context.Background(), []sweep.Job{j}, store)
	store.Close()
	if err != nil {
		fail("rerun: %v", err)
	}
	if resumedFrom != newest {
		fail("rerun resumed from round %d, want %d", resumedFrom, newest)
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
	if left := ckptNames(t, dir); len(left) != 0 {
		fail("%v outlived the rerun", left)
	}
}

// TestOpenStoreRemovesCrashOrphans: a process killed between CreateTemp
// and Rename leaves its temp file in <store>/ckpt, and nothing but the
// next OpenStore — which holds the store's lock, so no live writer can
// own the file — is placed to remove it.
func TestOpenStoreRemovesCrashOrphans(t *testing.T) {
	j := crashJob(t)
	for _, cp := range []crashPoint{
		{round: 2, file: "ckpt", boundary: atomicfile.AllWritten},
		{round: 2, file: "progress", boundary: atomicfile.HalfWritten},
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
