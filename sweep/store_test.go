package sweep_test

import (
	"bytes"
	"context"
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
// under ckpt/ is a job's two slots, and the load takes the one with the
// higher round whose header commits its checkpoint and which the
// resume rule accepts, and removes every other file of the job —
// whatever made the newer one unsound.
func TestLoadBoundaryPicksNewestSoundGeneration(t *testing.T) {
	fx := newHandoffFixture(t)
	slotB := func(dir string) string { return slotFile(dir, fx.job, "b") }
	// rewrite applies edit to slot b's bytes.
	rewrite := func(edit func(buf []byte) []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			buf, err := os.ReadFile(slotB(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(slotB(dir), edit(buf), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		newer  []byte                         // the checkpoint saved into slot b
		damage func(t *testing.T, dir string) // then done to slot b
	}{
		{"checkpoint torn", fx.ckpt[3], rewrite(func(buf []byte) []byte { return buf[:len(buf)/2] })},
		{"CRC mismatch", fx.ckpt[3], rewrite(func(buf []byte) []byte {
			buf[len(buf)-1] ^= 0xFF
			return buf
		})},
		// The length landed and the CRC did not: the zeros the fresh file
		// held are where it goes.
		{"header torn", fx.ckpt[3], rewrite(func(buf []byte) []byte {
			copy(buf[4:8], []byte{0, 0, 0, 0})
			return buf
		})},
		{"scheme mismatch", fx.slCkpt[3], nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantSlots(t, dir, fx.job, fx.ckpt[2], tc.newer)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			got, ok := store.LoadBoundary(fx.job)
			if !ok || got.Round != 2 || !bytes.Equal(got.Ckpt, fx.ckpt[2]) {
				t.Fatalf("LoadBoundary = (round %d, %d checkpoint bytes, %v), want slot a's round 2 and its %d bytes",
					got.Round, len(got.Ckpt), ok, len(fx.ckpt[2]))
			}
			want := []string{filepath.Base(slotFile(dir, fx.job, "a"))}
			if left := ckptFiles(t, dir); fmt.Sprint(left) != fmt.Sprint(want) {
				t.Fatalf("ckpt/ holds %v after the load, want %v", left, want)
			}
		})
	}

	// A pair in a layout of older binaries — the fixed names before
	// generations, a generation named by its round, a slot whose record
	// was a file of its own — is not read: OpenStore removes what is not
	// a slot's name, LoadBoundary the slot file that holds a bare
	// checkpoint, and the job runs from round 1.
	t.Run("parent-layout pair", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
			t.Fatal(err)
		}
		record := []byte(`{"round":2,"components":{},"total_seconds":0}`)
		for _, stem := range []string{fx.job.ID, fx.job.ID + ".2", fx.job.ID + ".a"} {
			for ext, body := range map[string][]byte{"ckpt": fx.ckpt[2], "progress": record} {
				name := stem + "." + ext
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
		if left, want := ckptFiles(t, dir), filepath.Base(slotFile(dir, fx.job, "a")); fmt.Sprint(left) != fmt.Sprint([]string{want}) {
			t.Fatalf("OpenStore kept %v, want the slot name %s alone", left, want)
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

	// One job's files are its own two names: not another job's, and not
	// a name that merely starts with its ID.
	t.Run("another job's files", func(t *testing.T) {
		dir := t.TempDir()
		other := fx.job
		other.ID = fx.job.ID + ".a" // <id>.a.a.ckpt is this job's slot a, not fx.job's
		third := fx.job
		third.ID = "z" + fx.job.ID[1:]
		plantSlots(t, dir, fx.job, fx.ckpt[2])
		plantSlots(t, dir, other, fx.ckpt[2])
		plantSlots(t, dir, third, fx.ckpt[2], fx.ckpt[3])
		store, err := sweep.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		var foreign []string
		for _, name := range []string{slotFile(dir, other, "a"), slotFile(dir, third, "a"), slotFile(dir, third, "b")} {
			foreign = append(foreign, filepath.Base(name))
		}
		sort.Strings(foreign)
		if got, ok := store.LoadBoundary(fx.job); !ok || got.Round != 2 {
			t.Fatalf("LoadBoundary = (round %d, %v), want the job's own round 2", got.Round, ok)
		}
		if left := ckptFiles(t, dir); len(left) != len(foreign)+1 {
			t.Fatalf("ckpt/ holds %v after the load, want all four files", left)
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
	if held != 2 {
		t.Fatalf("after three boundaries the store held %d descriptors, want both slots' two", held)
	}
	if left := ckptFiles(t, dir); len(left) != 2 {
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
// checkpoint written into a store that holds the boundary before, which
// the write supersedes.
func BenchmarkStoreBoundary(b *testing.B) {
	store, err := sweep.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	j := sweep.Job{ID: "0123456789abcdef"}
	ckpt := make([]byte, 200<<10)
	save := func() {
		if err := store.SaveBoundary(j, ckpt); err != nil {
			b.Fatal(err)
		}
	}
	save()
	b.SetBytes(int64(len(ckpt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save()
	}
}

// BenchmarkLoadBoundary is what a fleet coordinator does under its lock
// for each grant of a resumed job, and the Scheduler at a resume: load
// the newer of a job's slots, whose checkpoint a PaperSpec run of the
// scheme wrote after its first round. Only the checkpoint's header is
// decoded.
func BenchmarkLoadBoundary(b *testing.B) {
	for _, scheme := range []string{"sl", "gsfl", "sfl"} {
		b.Run(scheme, func(b *testing.B) {
			j := jobsOf(b, sweep.Grid{
				Name: "load", Base: env.PaperSpec(), Rounds: 2, EvalEvery: 2,
				Axes: sweep.Axes{Schemes: []string{scheme}},
			})[0]
			errStop := errors.New("first boundary taken")
			var ckpt []byte
			if _, err := sweep.RunLeased(context.Background(), j, 1, nil, sweep.LeaseCallbacks{
				OnCheckpoint: func(_ int, buf []byte) error {
					ckpt = bytes.Clone(buf)
					return errStop
				},
			}); !errors.Is(err, errStop) {
				b.Fatalf("taking the first boundary: %v", err)
			}
			store, err := sweep.OpenStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			if err := store.SaveBoundary(j, ckpt); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(ckpt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h, ok := store.LoadBoundary(j); !ok || h.Round != 1 {
					b.Fatalf("LoadBoundary = (round %d, %v), want round 1", h.Round, ok)
				}
			}
		})
	}
}
