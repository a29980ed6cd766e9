package atomicfile_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
// every boundary of both in-place writes of each saved boundary (the
// checkpoint into the spare slot, then the slot's record) and between
// the unlinks of the older slot, through both processes that write
// them: the Scheduler and the fleet coordinator (fed by one worker over
// loopback), each one Store.SaveBoundary per boundary. A killed process
// is a goroutine stopped inside the seam: nothing after the boundary
// runs until the assertions are over — a stopped coordinator holds its
// lock, so its worker just waits for an ack.

const (
	crashRounds = 7
	// savedBoundaries is how many boundaries an uncrashed run saves.
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
		cfg := fleet.WorkerConfig{Addr: c.Addr().String()}
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

// slotOf names which file ("ckpt" or "progress") of which slot ("a"
// or "b") a write targets; file is "" for any path that is not a slot
// file of the store rooted at dir (the compacted manifest).
func slotOf(dir, path string) (file, slot string) {
	if filepath.Dir(path) != filepath.Join(dir, "ckpt") {
		return "", ""
	}
	parts := strings.Split(filepath.Base(path), ".")
	if len(parts) != 3 || (parts[1] != "a" && parts[1] != "b") || (parts[2] != "ckpt" && parts[2] != "progress") {
		return "", ""
	}
	return parts[2], parts[1]
}

// slotPath is slotOf's inverse for job j.
func slotPath(dir string, j sweep.Job, slot, file string) string {
	return filepath.Join(dir, "ckpt", fmt.Sprintf("%s.%s.%s", j.ID, slot, file))
}

// otherSlot is the slot a boundary in slot does not write.
func otherSlot(slot string) string {
	if slot == "a" {
		return "b"
	}
	return "a"
}

// boundaryCounter numbers the writes of one job's boundaries as the
// seam sees them: a boundary's round is how many writes of its file
// have begun.
type boundaryCounter map[string]int

func (c boundaryCounter) round(file string, b atomicfile.Boundary) int {
	if b == atomicfile.BeforeWrite {
		c[file]++
	}
	return c[file]
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

// reference is an uncrashed run: what each boundary's two writes left
// on disk, by file and round, and the durable bytes at the end.
type reference struct {
	writes  map[string]map[int]string
	durable map[string]string
}

func uncrashed(t *testing.T, j sweep.Job, drv driver) reference {
	t.Helper()
	dir := t.TempDir()
	ref := reference{writes: map[string]map[int]string{"ckpt": {}, "progress": {}}}
	count := boundaryCounter{}
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		if f, _ := slotOf(dir, path); f != "" {
			if round := count.round(f, b); b == atomicfile.Cut {
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
				}
				ref.writes[f][round] = string(buf)
			}
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
// at the boundary after round — or, file "unlink", after that
// boundary's record landed whole and the other slot lost the files
// unlinked names (see unlinks).
type crashPoint struct {
	round    int
	file     string
	boundary atomicfile.Boundary
	unlinked string
}

// crashStates name what a kill after each of Overwrite's boundaries
// leaves of the write, in the terms the suite has used since slot files
// were written through a temp file and a rename: nothing landed
// (temp-created), the first half, all of it, and all of it with the
// file cut to its length, the write wholly in place (renamed).
var crashStates = []struct {
	name     string
	boundary atomicfile.Boundary
}{
	{"temp-created", atomicfile.BeforeWrite},
	{"half-written", atomicfile.HalfWritten},
	{"all-written", atomicfile.AllWritten},
	{"renamed", atomicfile.Cut},
}

// unlinks are the states a kill leaves while the store unlinks a slot
// that is not the newest — LoadBoundary removing the older slot at a
// resume, or Record and DropTransient removing both — beside a whole
// newer slot. os.Remove has no seam, so the harness stops the run at
// the newer boundary's commit and removes the older slot's files itself:
// either one alone, so that no order of the two is assumed, and both.
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

// dyingWrite is the write a crash at cp stops in: for an unlink state,
// the newer boundary's record, landed whole.
func (cp crashPoint) dyingWrite() crashPoint {
	if cp.file == "unlink" {
		return crashPoint{round: cp.round, file: "progress", boundary: atomicfile.Cut}
	}
	return cp
}

// crash runs the job against a fresh store in dir until it dies at cp,
// and returns the slot the dying write targets, with the dead process's
// locks and files released, as the kernel would leave them. bury lets
// the stopped goroutine unwind (every further write it attempts dies at
// once) and waits for it.
func crash(t *testing.T, j sweep.Job, drv driver, dir string, cp crashPoint) (slot string, bury func()) {
	t.Helper()
	at := cp.dyingWrite()
	var (
		hit     = make(chan string)
		release = make(chan struct{})
		done    = make(chan error, 1)
		count   = boundaryCounter{}
	)
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		f, slot := slotOf(dir, path)
		if f == "" {
			return false
		}
		fire := count.round(f, b) == at.round && f == at.file && b == at.boundary
		if fire {
			hit <- slot
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
	case slot = <-hit:
	case err := <-done:
		atomicfile.SetCrashAt(nil)
		store.Close()
		t.Fatalf("run ended (%v) without reaching crash point %v", err, cp)
	}
	atomicfile.SetCrashAt(nil)
	store.Close()
	for _, f := range unlinks[cp.unlinked] {
		if err := os.Remove(slotPath(dir, j, otherSlot(slot), f)); err != nil {
			t.Fatalf("crash point %v: the older slot is not whole at the commit: %v", cp, err)
		}
	}
	return slot, bury
}

func TestCrashPoints(t *testing.T) {
	j := crashJob(t)
	for _, drv := range drivers {
		ref := uncrashed(t, j, drv)
		for round := 1; round <= savedBoundaries; round++ {
			for _, file := range []string{"ckpt", "progress"} {
				for _, state := range crashStates {
					cp := crashPoint{round: round, file: file, boundary: state.boundary}
					t.Run(fmt.Sprintf("%s/round%d/%s/%s", drv.name, round, file, state.name), func(t *testing.T) {
						checkCrashPoint(t, j, drv, ref, cp)
					})
				}
			}
			for _, state := range unlinkStates {
				if round == 1 {
					break // no slot is older than the first boundary's
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
	slot, bury := crash(t, j, drv, dir, cp)
	defer bury()

	// The dying write has landed as far as its boundary says: nothing,
	// the first half, all of it, all of it and nothing after.
	at := cp.dyingWrite()
	want := ref.writes[at.file][at.round]
	landed := map[atomicfile.Boundary]int{
		atomicfile.BeforeWrite: 0, atomicfile.HalfWritten: len(want) / 2,
		atomicfile.AllWritten: len(want), atomicfile.Cut: len(want),
	}[at.boundary]
	got, err := os.ReadFile(slotPath(dir, j, slot, at.file))
	switch {
	case err != nil:
		fail("the slot being written is unreadable: %v", err)
	case !strings.HasPrefix(string(got), want[:landed]):
		fail("slot %s's %s does not begin with the %d bytes of round %d its write has landed", slot, at.file, landed, at.round)
	case at.boundary == atomicfile.Cut && string(got) != want:
		fail("slot %s's %s is not round %d's once cut", slot, at.file, at.round)
	}

	// A boundary is committed by its record landing whole and by nothing
	// before it; until then the newest committed boundary is the one
	// before, in the other slot.
	committed := at.file == "progress" && (at.boundary == atomicfile.AllWritten || at.boundary == atomicfile.Cut)
	newest, newestSlot := cp.round-1, otherSlot(slot)
	if committed {
		newest, newestSlot = cp.round, slot
	}
	if newest > 0 {
		// The newest committed slot is whole, whatever is torn beside it:
		// its checkpoint exactly, its record followed by nothing but the
		// tail of the longer record it was written over.
		ckpt, err := os.ReadFile(slotPath(dir, j, newestSlot, "ckpt"))
		if err != nil || string(ckpt) != ref.writes["ckpt"][newest] {
			fail("slot %s's checkpoint is not round %d's (%v)", newestSlot, newest, err)
		}
		rec, err := os.ReadFile(slotPath(dir, j, newestSlot, "progress"))
		if err != nil || !strings.HasPrefix(string(rec), ref.writes["progress"][newest]) {
			fail("slot %s's record is not round %d's (%v)", newestSlot, newest, err)
		}
		path := slotPath(dir, j, newestSlot, "ckpt")
		if scheme, round, err := sim.PeekCheckpoint(path); err != nil || scheme != j.Scheme || round != newest {
			fail("PeekCheckpoint = (%q, %d, %v), want (%q, %d)", scheme, round, err, j.Scheme, newest)
		}
	}

	// The rerun resumes from that slot — every crash from round 2 on has
	// one — and ends where the uncrashed run did, nothing left behind.
	resumedFrom := 0
	store := openStore(t, dir)
	_, err = (&sweep.Scheduler{Jobs: 1, Workers: 1, CheckpointEvery: 1,
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
	durableGot := durable(t, dir)
	if len(durableGot) != len(ref.durable) {
		fail("rerun left %d durable files, want %d", len(durableGot), len(ref.durable))
	}
	for path, body := range ref.durable {
		if durableGot[path] != body {
			fail("rerun's %s differs from the uncrashed run's", path)
		}
	}
	if left := ckptNames(t, dir); len(left) != 0 {
		fail("%v outlived the rerun", left)
	}
}

// TestOpenStoreRemovesCrashOrphans: under ckpt/ a store keeps slot
// files and nothing else. What an older layout left there — a killed
// writer's temp file, a generation named by its round, a fixed-name
// pair — has no reader, and the next OpenStore, which holds the store's
// lock so that no live writer can own a file, removes it, while the
// slots a crash left stay for the rerun. So is the temp file of a
// Compact killed before its rename, beside the whole manifest it was to
// replace: OpenStore removes it and loads every entry of that manifest.
func TestOpenStoreRemovesCrashOrphans(t *testing.T) {
	j := crashJob(t)
	for _, cp := range []crashPoint{
		{round: 3, file: "ckpt", boundary: atomicfile.AllWritten},
		{round: 3, file: "progress", boundary: atomicfile.HalfWritten},
	} {
		t.Run(cp.file, func(t *testing.T) {
			dir := t.TempDir()
			_, bury := crash(t, j, drivers[0], dir, cp)
			defer bury()
			slots := ckptNames(t, dir)
			if len(slots) != 4 {
				t.Fatalf("crash at %v left %v, want both slots' files", cp, slots)
			}
			orphans := []string{
				"." + cp.file + "-123456",          // the temp file of a writer killed before its rename
				j.ID + ".1." + cp.file,             // a generation of round 1
				j.ID + "." + cp.file,               // the fixed-name layout before generations
				j.ID + ".a." + cp.file + "-654321", // a temp file beside a slot's name
			}
			for _, name := range orphans {
				if err := os.WriteFile(filepath.Join(dir, "ckpt", name), []byte("orphan"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			openStore(t, dir).Close()
			if left := ckptNames(t, dir); fmt.Sprint(left) != fmt.Sprint(slots) {
				t.Fatalf("OpenStore left %v, want the slots %v alone", left, slots)
			}
		})
	}

	for _, b := range []atomicfile.Boundary{atomicfile.HalfWritten, atomicfile.AllWritten} {
		t.Run("manifest "+b.String(), func(t *testing.T) {
			dir := t.TempDir()
			store := openStore(t, dir)
			if err := drivers[0].run(t, j, store); err != nil {
				t.Fatal(err)
			}
			want := durable(t, dir)
			manifest := filepath.Join(dir, "manifest.jsonl")
			atomicfile.SetCrashAt(func(path string, at atomicfile.Boundary) bool { return path == manifest && at == b })
			err := store.Compact([]sweep.Job{j})
			atomicfile.SetCrashAt(nil)
			store.Close()
			if err == nil {
				t.Fatal("Compact outlived its crash")
			}
			if temps, _ := filepath.Glob(filepath.Join(dir, ".manifest-*")); len(temps) != 1 {
				t.Fatalf("a Compact killed %v left %v, want its one temp file", b, temps)
			}
			store = openStore(t, dir)
			defer store.Close()
			if temps, _ := filepath.Glob(filepath.Join(dir, ".manifest-*")); len(temps) != 0 {
				t.Fatalf("OpenStore left %v", temps)
			}
			if _, ok := store.Lookup(j.ID); !ok || store.Len() != 1 {
				t.Fatalf("OpenStore loaded %d entries (the job's: %v), want the manifest's one", store.Len(), ok)
			}
			if got := durable(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatal("the durable bytes changed across the killed Compact")
			}
		})
	}
}

// TestCompactKilledKeepsTheManifestHandle: a Compact that dies before
// its rename has replaced nothing, so the store must go on appending to
// the manifest it holds open. A later Record lands in the manifest a
// reader opens, and Close reports nothing — not a handle Compact closed
// and left behind.
func TestCompactKilledKeepsTheManifestHandle(t *testing.T) {
	jobs, err := sweep.Grid{
		Name: "compact", Base: crashJob(t).Spec, Rounds: 2, EvalEvery: 2,
		Axes: sweep.Axes{Seeds: []int64{1, 2}},
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]sweep.JobResult, len(jobs))
	for i, j := range jobs {
		if results[i], err = sweep.RunLeased(context.Background(), j, 0, nil, sweep.LeaseCallbacks{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []atomicfile.Boundary{atomicfile.HalfWritten, atomicfile.AllWritten} {
		t.Run(b.String(), func(t *testing.T) {
			dir := t.TempDir()
			store := openStore(t, dir)
			if err := store.Record(results[0]); err != nil {
				t.Fatal(err)
			}
			manifest := filepath.Join(dir, "manifest.jsonl")
			atomicfile.SetCrashAt(func(path string, at atomicfile.Boundary) bool { return path == manifest && at == b })
			err := store.Compact(jobs)
			atomicfile.SetCrashAt(nil)
			if err == nil {
				t.Fatal("Compact outlived its crash")
			}
			if err := store.Record(results[1]); err != nil {
				t.Fatalf("Record after the killed Compact: %v", err)
			}
			if err := store.Close(); err != nil {
				t.Fatalf("Close after the killed Compact: %v", err)
			}
			store = openStore(t, dir)
			defer store.Close()
			for _, j := range jobs {
				if _, ok := store.Lookup(j.ID); !ok {
					t.Fatalf("the manifest lost %s across the killed Compact", j.Name)
				}
			}
		})
	}
}
