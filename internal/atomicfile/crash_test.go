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
// every boundary of the in-place write of each saved boundary (the
// checkpoint into the spare slot's file, the cut, then the slot's
// header) and with the older slot unlinked or damaged, through both
// processes that write them: the Scheduler and the fleet coordinator
// (fed by one worker over loopback), each one Store.SaveBoundary per
// boundary. A killed process is a goroutine stopped inside the seam:
// nothing after the boundary runs until the assertions are over — a
// stopped coordinator holds its lock, so its worker just waits for an
// ack.

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

// slotHeader is the length of a slot file's header: the checkpoint's
// length and CRC-32C, which commit it.
const slotHeader = 8

// slotOf names which slot ("a" or "b") a write targets, "" for any
// path that is not a slot file of the store rooted at dir (the
// compacted manifest).
func slotOf(dir, path string) string {
	if filepath.Dir(path) != filepath.Join(dir, "ckpt") {
		return ""
	}
	parts := strings.Split(filepath.Base(path), ".")
	if len(parts) != 3 || (parts[1] != "a" && parts[1] != "b") || parts[2] != "ckpt" {
		return ""
	}
	return parts[1]
}

// slotPath is slotOf's inverse for job j.
func slotPath(dir string, j sweep.Job, slot string) string {
	return filepath.Join(dir, "ckpt", fmt.Sprintf("%s.%s.ckpt", j.ID, slot))
}

// otherSlot is the slot a boundary in slot does not write.
func otherSlot(slot string) string {
	if slot == "a" {
		return "b"
	}
	return "a"
}

// boundaryCounter numbers the writes of one job's boundaries as the
// seam sees them: a boundary's round is how many slot writes have
// begun.
type boundaryCounter struct{ n int }

func (c *boundaryCounter) round(b atomicfile.Boundary) int {
	if b == atomicfile.BeforeWrite {
		c.n++
	}
	return c.n
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

// reference is an uncrashed run: the slot file each boundary's write
// left on disk, by round, and the durable bytes at the end.
type reference struct {
	writes  map[int]string
	durable map[string]string
}

func uncrashed(t *testing.T, j sweep.Job, drv driver) reference {
	t.Helper()
	dir := t.TempDir()
	ref := reference{writes: map[int]string{}}
	count := &boundaryCounter{}
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		if slotOf(dir, path) != "" {
			if round := count.round(b); b == atomicfile.HeadWritten {
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
				}
				ref.writes[round] = string(buf)
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
	if _, last := ref.writes[crashRounds]; last || len(ref.writes) != savedBoundaries {
		t.Fatalf("%s driver wrote slots for %d rounds (the last round's: %v), want rounds 1..%d",
			drv.name, len(ref.writes), last, savedBoundaries)
	}
	ref.durable = durable(t, dir)
	return ref
}

// crashPoint is where a run dies: after boundary of the write of part
// ("ckpt", the checkpoint after the header, or "progress", the header
// that commits it) at the boundary after round — or, part "unlink",
// after that boundary's header landed whole and the older slot lost
// what unlinked names (see unlinks).
type crashPoint struct {
	round    int
	part     string
	boundary atomicfile.Boundary
	unlinked string
}

// crashStates name what a kill after each of Overwrite's boundaries
// leaves of each part of the write, in the terms the suite has used
// since slot files were written through a temp file and a rename, and
// the header was a record file of its own, "progress": nothing of the
// part landed (temp-created), its first half, all of it, and the part
// wholly in place (renamed) — for the checkpoint, with the file cut to
// its length. The checkpoint's "renamed" and the header's
// "temp-created" are one state, as they were when the two were files,
// and so are the header's "all-written" and "renamed": the cut comes
// before the header.
var crashStates = []struct {
	part     string
	name     string
	boundary atomicfile.Boundary
}{
	{"ckpt", "temp-created", atomicfile.BeforeWrite},
	{"ckpt", "half-written", atomicfile.HalfWritten},
	{"ckpt", "all-written", atomicfile.AllWritten},
	{"ckpt", "renamed", atomicfile.Cut},
	{"progress", "temp-created", atomicfile.Cut},
	{"progress", "half-written", atomicfile.HeadHalf},
	{"progress", "all-written", atomicfile.HeadWritten},
	{"progress", "renamed", atomicfile.HeadWritten},
}

// unlinks are the states of the older slot beside a whole newer one,
// in the suite's terms (the header was the "sidecar"): the store
// unlinks a slot that is not the newest — LoadBoundary removing the
// older slot at a resume, or Record and DropTransient removing both —
// and os.Remove has no seam, so the harness stops the run at the newer
// boundary's commit and removes the older slot's file itself
// (prev-pair-gone). A kill cannot take the older slot's header or
// checkpoint alone, but power loss can (either slot may come back with
// any subset of its pages), so the harness zeroes its header
// (prev-sidecar-gone) or cuts the file to its header
// (prev-checkpoint-gone) too: whatever is left of the older slot, the
// rerun resumes from the newer.
var unlinks = []struct {
	name   string
	damage func(path string) error
}{
	{"prev-sidecar-gone", func(path string) error {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt(make([]byte, slotHeader), 0)
		return err
	}},
	{"prev-checkpoint-gone", func(path string) error { return os.Truncate(path, slotHeader) }},
	{"prev-pair-gone", os.Remove},
}

func (cp crashPoint) String() string {
	if cp.part == "unlink" {
		return fmt.Sprintf("(round %d, unlink, %s)", cp.round, cp.unlinked)
	}
	return fmt.Sprintf("(round %d, %s, %v)", cp.round, cp.part, cp.boundary)
}

// dyingBoundary is the boundary of the write a crash at cp stops in:
// for the unlink, the newer boundary's header, landed whole.
func (cp crashPoint) dyingBoundary() atomicfile.Boundary {
	if cp.part == "unlink" {
		return atomicfile.HeadWritten
	}
	return cp.boundary
}

// crash runs the job against a fresh store in dir until it dies at cp,
// and returns the slot the dying write targets, with the dead process's
// locks and files released, as the kernel would leave them. bury lets
// the stopped goroutine unwind (every further write it attempts dies at
// once) and waits for it.
func crash(t *testing.T, j sweep.Job, drv driver, dir string, cp crashPoint) (slot string, bury func()) {
	t.Helper()
	at := cp.dyingBoundary()
	var (
		hit     = make(chan string)
		release = make(chan struct{})
		done    = make(chan error, 1)
		count   = &boundaryCounter{}
	)
	atomicfile.SetCrashAt(func(path string, b atomicfile.Boundary) bool {
		slot := slotOf(dir, path)
		if slot == "" {
			return false
		}
		fire := count.round(b) == cp.round && b == at
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
	for _, u := range unlinks {
		if u.name != cp.unlinked {
			continue
		}
		if err := u.damage(slotPath(dir, j, otherSlot(slot))); err != nil {
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
			for _, state := range crashStates {
				cp := crashPoint{round: round, part: state.part, boundary: state.boundary}
				t.Run(fmt.Sprintf("%s/round%d/%s/%s", drv.name, round, state.part, state.name), func(t *testing.T) {
					checkCrashPoint(t, j, drv, ref, cp)
				})
			}
			for _, u := range unlinks {
				if round == 1 {
					break // no slot is older than the first boundary's
				}
				cp := crashPoint{round: round, part: "unlink", unlinked: u.name}
				t.Run(fmt.Sprintf("%s/round%d/unlink/%s", drv.name, round, u.name), func(t *testing.T) {
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

	// The dying write has landed as far as its boundary says: of the
	// checkpoint nothing, the first half or all of it, then the file is
	// cut, then the header lands, half of it or all of it.
	at := cp.dyingBoundary()
	want := ref.writes[cp.round]
	wantHead, wantBody := want[:slotHeader], want[slotHeader:]
	landedBody := map[atomicfile.Boundary]int{
		atomicfile.BeforeWrite: 0, atomicfile.HalfWritten: len(wantBody) / 2,
	}
	landed, ok := landedBody[at]
	if !ok {
		landed = len(wantBody)
	}
	cut := at == atomicfile.Cut || at == atomicfile.HeadHalf || at == atomicfile.HeadWritten
	landedHead := map[atomicfile.Boundary]int{atomicfile.HeadHalf: slotHeader / 2, atomicfile.HeadWritten: slotHeader}[at]
	got, err := os.ReadFile(slotPath(dir, j, slot))
	if err != nil {
		fail("the slot being written is unreadable: %v", err)
	}
	head, body := string(got[:min(len(got), slotHeader)]), ""
	if len(got) > slotHeader {
		body = string(got[slotHeader:])
	}
	switch {
	case !strings.HasPrefix(body, wantBody[:landed]):
		fail("slot %s's checkpoint does not begin with the %d bytes of round %d its write has landed", slot, landed, cp.round)
	case cut && body != wantBody:
		fail("slot %s's checkpoint is not round %d's once cut", slot, cp.round)
	case !strings.HasPrefix(head, wantHead[:landedHead]):
		fail("slot %s's header does not begin with the %d bytes of round %d its write has landed", slot, landedHead, cp.round)
	}

	// A boundary is committed by its header landing whole and by nothing
	// before it; until then the newest committed boundary is the one
	// before, in the other slot.
	newest, newestSlot := cp.round-1, otherSlot(slot)
	if at == atomicfile.HeadWritten {
		newest, newestSlot = cp.round, slot
	}
	if newest > 0 {
		// The newest committed slot is whole, whatever is torn beside it.
		buf, err := os.ReadFile(slotPath(dir, j, newestSlot))
		if err != nil || string(buf) != ref.writes[newest] {
			fail("slot %s is not round %d's (%v)", newestSlot, newest, err)
		}
		if cf, err := sim.DecodeCheckpoint(buf[slotHeader:]); err != nil || cf.Scheme != j.Scheme || cf.Round != newest {
			fail("slot %s decodes to (%v, %v), want %q at round %d", newestSlot, cf, err, j.Scheme, newest)
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
// pair, a slot's separate record file — has no reader, and the next OpenStore, which holds the store's
// lock so that no live writer can own a file, removes it, while the
// slots a crash left stay for the rerun. So is the temp file of a
// Compact killed before its rename, beside the whole manifest it was to
// replace: OpenStore removes it and loads every entry of that manifest.
func TestOpenStoreRemovesCrashOrphans(t *testing.T) {
	j := crashJob(t)
	for _, cp := range []crashPoint{
		{round: 3, part: "ckpt", boundary: atomicfile.AllWritten},
		{round: 3, part: "progress", boundary: atomicfile.HeadHalf},
	} {
		t.Run(cp.part, func(t *testing.T) {
			dir := t.TempDir()
			_, bury := crash(t, j, drivers[0], dir, cp)
			defer bury()
			slots := ckptNames(t, dir)
			if len(slots) != 2 {
				t.Fatalf("crash at %v left %v, want both slots' files", cp, slots)
			}
			orphans := []string{
				"." + cp.part + "-123456",          // the temp file of a writer killed before its rename
				j.ID + ".1." + cp.part,             // a generation of round 1
				j.ID + "." + cp.part,               // the fixed-name layout before generations
				j.ID + ".a." + cp.part + "-654321", // a temp file beside a slot's name
				j.ID + ".a." + "progress",          // a slot's record, before the checkpoint carried its sums
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
