package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gsfl/env"
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
// under ckpt/ is a job's two slots, and the load takes the newer one
// whose record commits its checkpoint and which the resume rule
// accepts, and removes every other file of the job — whatever made the
// newer one unsound.
func TestLoadBoundaryPicksNewestSoundGeneration(t *testing.T) {
	fx := newHandoffFixture(t)
	p := func(r int) *sweep.Progress { v := fx.prog[r]; return &v }
	slotB := func(ext string) string { return slotFile("", fx.job, "b", ext) }
	cut := func(ext string, keep func(n int) int) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, slotB(ext))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, int64(keep(int(fi.Size())))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		newer  saved                          // the boundary saved into slot b
		damage func(t *testing.T, dir string) // then done to slot b
	}{
		{"sidecar missing", saved{fx.prog[3], fx.ckpt[3]}, func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, slotB("progress"))); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint torn", saved{fx.prog[3], fx.ckpt[3]}, cut("ckpt", func(n int) int { return n / 2 })},
		{"CRC mismatch", saved{fx.prog[3], fx.ckpt[3]}, func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, slotB("ckpt")), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			last := len(fx.ckpt[3]) - 1
			if _, err := f.WriteAt([]byte{^fx.ckpt[3][last]}, int64(last)); err != nil {
				t.Fatal(err)
			}
		}},
		{"short record", saved{fx.prog[3], fx.ckpt[3]}, cut("progress", func(n int) int { return n - 3 })},
		// A record that still parses, its sums no longer the ones written.
		{"record torn", saved{fx.prog[3], fx.ckpt[3]}, func(t *testing.T, dir string) {
			path := filepath.Join(dir, slotB("progress"))
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The last digit of total_seconds.
			at := bytes.Index(buf, []byte(`,"ckpt_bytes"`)) - 1
			if at < 0 || buf[at] < '0' || buf[at] > '9' {
				t.Fatalf("record %q: no digit to change before ckpt_bytes", buf)
			}
			buf[at] = '0' + (buf[at]-'0'+1)%10
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"scheme mismatch", saved{fx.prog[3], fx.slCkpt[3]}, nil},
		{"wrong round", saved{fx.prog[2], fx.ckpt[3]}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantSlots(t, dir, fx.job, saved{fx.prog[2], fx.ckpt[2]}, tc.newer)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			got, ok := store.LoadBoundary(fx.job)
			if !ok || got.Progress.Round != 2 || !bytes.Equal(got.Ckpt, fx.ckpt[2]) {
				t.Fatalf("LoadBoundary = (round %d, %d checkpoint bytes, %v), want slot a's round 2 and its %d bytes",
					got.Progress.Round, len(got.Ckpt), ok, len(fx.ckpt[2]))
			}
			want := []string{filepath.Base(slotFile(dir, fx.job, "a", "ckpt")), filepath.Base(slotFile(dir, fx.job, "a", "progress"))}
			if left := ckptFiles(t, dir); fmt.Sprint(left) != fmt.Sprint(want) {
				t.Fatalf("ckpt/ holds %v after the load, want %v", left, want)
			}
		})
	}

	t.Run("orphan checkpoint alone", func(t *testing.T) {
		dir := t.TempDir()
		plantSlot(t, dir, fx.job, 2, fx.ckpt[2], nil)
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if _, ok := store.LoadBoundary(fx.job); ok {
			t.Fatal("a checkpoint without a sidecar was offered as a handoff")
		}
		if left := ckptFiles(t, dir); len(left) != 0 {
			t.Fatalf("ckpt/ holds %v after the load, want nothing", left)
		}
	})

	// A pair in a layout of older binaries — the fixed names before
	// generations, a generation named by its round — is not read:
	// OpenStore removes it and the job runs from round 1.
	t.Run("parent-layout pair", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(fx.prog[2])
		if err != nil {
			t.Fatal(err)
		}
		for _, stem := range []string{fx.job.ID, fx.job.ID + ".2"} {
			for name, body := range map[string][]byte{stem + ".ckpt": fx.ckpt[2], stem + ".progress": buf} {
				if err := os.WriteFile(filepath.Join(dir, "ckpt", name), body, 0o644); err != nil {
					t.Fatal(err)
				}
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

	// One job's files are its own four names: not another job's, and not
	// a name that merely starts with its ID.
	t.Run("another job's files", func(t *testing.T) {
		dir := t.TempDir()
		other := fx.job
		other.ID = fx.job.ID + ".a" // <id>.a.a.ckpt is this job's slot a, not fx.job's
		third := fx.job
		third.ID = "z" + fx.job.ID[1:]
		plantSlot(t, dir, fx.job, 2, fx.ckpt[2], p(2))
		plantSlot(t, dir, other, 2, fx.ckpt[2], p(2))
		plantSlots(t, dir, third, saved{fx.prog[2], fx.ckpt[2]}, saved{fx.prog[3], fx.ckpt[3]})
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		var foreign []string
		for _, name := range []string{
			slotFile(dir, other, "a", "ckpt"), slotFile(dir, other, "a", "progress"),
			slotFile(dir, third, "a", "ckpt"), slotFile(dir, third, "a", "progress"),
			slotFile(dir, third, "b", "ckpt"), slotFile(dir, third, "b", "progress"),
		} {
			foreign = append(foreign, filepath.Base(name))
		}
		sort.Strings(foreign)
		if got, ok := store.LoadBoundary(fx.job); !ok || got.Progress.Round != 2 {
			t.Fatalf("LoadBoundary = (round %d, %v), want the job's own round 2", got.Progress.Round, ok)
		}
		if left := ckptFiles(t, dir); len(left) != len(foreign)+2 {
			t.Fatalf("ckpt/ holds %v after the load, want all eight files", left)
		}
		store.DropTransient(fx.job)
		if left := ckptFiles(t, dir); fmt.Sprint(left) != fmt.Sprint(foreign) {
			t.Fatalf("ckpt/ holds %v after the job's drop, want %v", left, foreign)
		}
	})
}

// TestStoreReleasesSlotHandles: a store holds an in-flight job's slot
// files open from boundary to boundary, and gives every one back —
// Record once the job is done, Close for a sweep cancelled mid-job,
// whose slots stay on disk for the resume.
func TestStoreReleasesSlotHandles(t *testing.T) {
	openFDs := func() int {
		t.Helper()
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(entries)
	}
	jobs := jobsOf(t, sweep.Grid{
		Name: "fd", Base: env.TestSpec(), Rounds: 6, EvalEvery: 3,
		Axes: sweep.Axes{Groups: []int{2}, Schemes: []string{"gsfl", "sl"}},
	})
	dir := t.TempDir()
	// A store opened and closed once first, so that whatever the runtime
	// keeps open after its first file (the poller) is in every count.
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	before := openFDs()
	if store, err = sweep.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	opened := openFDs()
	sched := &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1}
	if _, err := sched.Run(context.Background(), jobs[:1], store); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(); n != opened {
		t.Fatalf("%d descriptors open after the job was recorded, %d before it ran", n, opened)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := 0
	sched.Observers = []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
		if e.Kind == sweep.JobRound && e.Round == 3 {
			held = openFDs() - opened
			cancel()
		}
	})}
	if _, err := sched.Run(ctx, jobs[1:], store); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	if held != 4 {
		t.Fatalf("after three boundaries the store held %d descriptors, want both slots' four", held)
	}
	if left := ckptFiles(t, dir); len(left) != 4 {
		t.Fatalf("the cancelled job left %v under ckpt/, want both slots", left)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(); n != before {
		t.Fatalf("%d descriptors open after Close, %d before the store was opened", n, before)
	}
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
