package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsfl/internal/atomicfile"
	"gsfl/internal/metrics"
)

// Store layout under its directory:
//
//	manifest.jsonl           one Entry per completed job, appended as jobs
//	                         finish, rewritten into job order on Compact
//	curves/<id>.csv          the job's training curve (trace long format)
//	ckpt/<id>.<r>.ckpt       sim checkpoint of an in-flight job after
//	                         round r (transient)
//	ckpt/<id>.<r>.progress   sweep-side cumulative ledger at the same
//	                         boundary (transient); its rename commits the
//	                         pair
//
// Everything durable is keyed by the job's content-hash ID, so a store
// is shared safely by overlapping grids and across resumed runs.
//
// A boundary's pair is a generation, named by its round, and a
// generation is written onto names nothing holds: the checkpoint, then
// the sidecar, and only once the sidecar has landed is the generation
// before it unlinked. No live transient file is ever overwritten — a
// rename onto an existing name makes ext4 (auto_da_alloc) allocate and
// write the new file back at once, 200 KB to the block device every
// round for state deleted a round later, while a file renamed onto a
// fresh name and unlinked soon after never leaves the page cache. A
// sound pair is on disk at every instant from the first boundary on.
const (
	manifestName = "manifest.jsonl"
	curvesDir    = "curves"
	ckptDir      = "ckpt"
	// timingsName is a transient host wall-clock sidecar: one line per
	// recorded job ({"id":…,"host_seconds":…}), appended on Record and
	// deleted on Compact. It exists so a resumed sweep can seed its ETA
	// from the completed jobs' real cost without host time ever reaching
	// the manifest — a completed store stays byte-identical across
	// machines and kill schedules.
	timingsName = "timings.jsonl"
	// lockName is the store's advisory-lock file.
	lockName = ".lock"
	// ckptExt and progressExt end the two files of a generation;
	// ckptTemp and progressTemp name the temp files they are written
	// through (atomicfile.Write patterns).
	ckptExt      = ".ckpt"
	progressExt  = ".progress"
	ckptTemp     = ".ckpt-*"
	progressTemp = ".progress-*"
)

// Point is one stored curve evaluation (a metrics.Point with fixed JSON
// field names, so the manifest format does not silently track internal
// renames).
type Point struct {
	Round          int     `json:"round"`
	LatencySeconds float64 `json:"latency_seconds"`
	Loss           float64 `json:"loss"`
	Accuracy       float64 `json:"accuracy"`
}

// Entry is one manifest record: a completed job's identity and results.
// Every field is deterministic — host wall-clock never enters the
// manifest — so equal sweeps produce byte-equal manifests.
type Entry struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Scheme    string `json:"scheme"`
	Rounds    int    `json:"rounds"`
	EvalEvery int    `json:"eval_every"`
	Seed      int64  `json:"seed"`
	// FinalAccuracy and ElapsedSeconds summarize the run; Components is
	// the per-component virtual-latency sum over all rounds and
	// TotalSeconds the round-ordered sum of critical-path totals.
	FinalAccuracy  float64            `json:"final_accuracy"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	TotalSeconds   float64            `json:"total_seconds"`
	Components     map[string]float64 `json:"components"`
	// Points is the training curve; CurveFile the per-job CSV copy
	// (relative to the store directory).
	Points    []Point `json:"points"`
	CurveFile string  `json:"curve_file"`
}

// Progress is the transient sidecar persisted next to a job's sim
// checkpoint: the sweep-level accumulators the checkpoint itself does
// not carry. Round must match the checkpoint's completed rounds and the
// round the pair's generation is named by; a pair that does not is
// discarded for the generation before it, or a rerun from scratch —
// determinism is never at risk, only work.
// It is exported because the fleet coordinator ships it to workers as
// part of a lease's checkpoint handoff.
type Progress struct {
	Round        int                `json:"round"`
	Components   map[string]float64 `json:"components"`
	TotalSeconds float64            `json:"total_seconds"`
}

// ErrStoreLocked reports a store directory already held open by another
// process (a live coordinator or scheduler).
var ErrStoreLocked = errors.New("sweep: store is locked by another process")

// Store is the durable state of a sweep. It is safe for concurrent use
// by one Scheduler. An open Store holds an exclusive advisory lock on
// its directory, so two processes (say, a fleet coordinator and a
// stray single-process sweep) cannot interleave manifest appends.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]*Entry
	timings map[string]float64 // job ID -> host seconds (transient sidecar)
	f       *os.File           // manifest append handle
	lock    *os.File           // flock handle on lockName

	// genMu guards gen alone, apart from mu: a job's boundary must not
	// wait behind another job's Record, which fsyncs under mu.
	genMu sync.Mutex
	gen   map[string]int // job ID -> round of its newest committed generation
}

// OpenStore opens (creating if needed) a sweep results directory and
// loads its manifest. A trailing partially-written manifest line (crash
// mid-append) is dropped; complete entries before it stand. Opening a
// store another process holds open fails with ErrStoreLocked; a
// manifest momentarily absent because a compacting coordinator is
// mid-rename is retried, not treated as empty.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, curvesDir), filepath.Join(dir, ckptDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: creating store directory: %w", err)
		}
	}
	lock, err := lockStore(dir)
	if err != nil {
		return nil, err
	}
	// Under the lock no live writer owns a file in ckpt/, and whatever is
	// not a generation there has no reader: the temp file of a writer
	// killed between CreateTemp and Rename, or a fixed-name <id>.ckpt /
	// <id>.progress pair left by a binary from before generations — that
	// job reruns from scratch, to the same bytes.
	entries, _ := os.ReadDir(filepath.Join(dir, ckptDir))
	for _, e := range entries {
		if _, _, ok := splitGen(e.Name()); !ok {
			os.Remove(filepath.Join(dir, ckptDir, e.Name()))
		}
	}
	s := &Store{dir: dir, entries: map[string]*Entry{}, timings: map[string]float64{}, gen: map[string]int{}, lock: lock}
	path := filepath.Join(dir, manifestName)
	if data, err := openManifest(dir); err == nil {
		sc := bufio.NewScanner(data)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				break // partial trailing line from a crash; stop here
			}
			s.entries[e.ID] = &e
		}
		data.Close()
	} else if !os.IsNotExist(err) {
		lock.Close()
		return nil, fmt.Errorf("sweep: opening manifest: %w", err)
	}
	s.loadTimings()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("sweep: opening manifest for append: %w", err)
	}
	s.f = f
	return s, nil
}

// lockStore takes the store's exclusive advisory lock. The lock is held
// by the open file descriptor, so a crashed process releases it
// automatically.
func lockStore(dir string) (*os.File, error) {
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening store lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("%w: %s", ErrStoreLocked, dir)
	}
	return lock, nil
}

// afterManifestMiss is a test seam, nil outside tests: openManifest
// calls it between finding no manifest and looking for Compact's temp
// file, the window in which a rename can land.
var afterManifestMiss func()

// openManifest opens the manifest tolerating a concurrently-compacting
// coordinator. Compact replaces the file atomically via rename, but a
// reader that raced StoreExists can still observe ErrNotExist on
// filesystems that surface the swap as unlink+link; the in-flight
// rename is distinguishable from a genuinely fresh store by Compact's
// temp file, so retry while one is visible. Seeing neither the manifest
// nor a temp file is not yet a fresh store: the rename may have landed
// between the two looks — the only way the temp can vanish — so the
// manifest gets one more look, and only its absence then means fresh.
func openManifest(dir string) (*os.File, error) {
	path := filepath.Join(dir, manifestName)
	for attempt := 0; ; attempt++ {
		f, err := os.Open(path)
		if err == nil || !errors.Is(err, os.ErrNotExist) || attempt >= 100 {
			return f, err
		}
		if afterManifestMiss != nil {
			afterManifestMiss()
		}
		tmps, _ := filepath.Glob(filepath.Join(dir, ".manifest-*"))
		if len(tmps) == 0 {
			return os.Open(path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// StoreExists reports whether dir already holds a sweep manifest —
// i.e. opening it would continue (or collide with) an earlier sweep.
func StoreExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Close releases the manifest handle and the store lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
	}
	if s.lock != nil {
		s.lock.Close() // closing the fd drops the flock
		s.lock = nil
	}
	return err
}

// Len returns the number of recorded entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lookup returns the manifest entry for a job ID, if recorded.
func (s *Store) Lookup(id string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return e, ok
}

// Result reconstructs a completed job's JobResult from its manifest
// entry, so folds over a resumed sweep see exactly what the original
// execution produced.
func (s *Store) Result(j Job) (JobResult, bool) {
	e, ok := s.Lookup(j.ID)
	if !ok {
		return JobResult{}, false
	}
	return ResultFrom(j, ResultParts{TotalSeconds: e.TotalSeconds, Components: e.Components, Points: e.Points}), true
}

// entryOf flattens a result into its manifest record.
func (s *Store) entryOf(res JobResult) *Entry {
	parts := PartsOf(res)
	e := &Entry{
		ID:           res.Job.ID,
		Name:         res.Job.Name,
		Scheme:       res.Job.Scheme,
		Rounds:       res.Job.Rounds,
		EvalEvery:    res.Job.EvalEvery,
		Seed:         res.Job.Spec.Seed,
		TotalSeconds: parts.TotalSeconds,
		Components:   parts.Components,
		Points:       parts.Points,
		CurveFile:    filepath.Join(curvesDir, res.Job.ID+".csv"),
	}
	if res.Curve != nil {
		e.FinalAccuracy = res.Curve.FinalAccuracy()
	}
	if n := len(e.Points); n > 0 {
		e.ElapsedSeconds = e.Points[n-1].LatencySeconds
	}
	return e
}

// Record persists a completed job: its curve CSV, then its manifest
// line (synced, so a later crash cannot lose acknowledged work), then
// drops the job's transient checkpoint state.
func (s *Store) Record(res JobResult) error {
	e := s.entryOf(res)
	if err := metrics.SaveCurvesCSV(filepath.Join(s.dir, e.CurveFile), []*metrics.Curve{res.Curve}); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: encoding manifest entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("sweep: store is closed")
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: appending manifest entry: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("sweep: syncing manifest: %w", err)
	}
	s.entries[e.ID] = e
	s.dropTransient(res.Job.ID)
	return nil
}

// genName names one file of a job's generation at round.
func genName(id string, round int, ext string) string {
	return id + "." + strconv.Itoa(round) + ext
}

// splitGen is genName's inverse: ok=false for any name that is not a
// generation file — a temp file, a fixed-name <id>.ckpt of the layout
// before generations, a round not spelt the one way genName spells it.
// A job's files are the names whose id equals the job's, whole, so no
// job's listing can match another's.
func splitGen(name string) (id string, round int, ok bool) {
	ext := filepath.Ext(name)
	if ext != ckptExt && ext != progressExt {
		return "", 0, false
	}
	stem := strings.TrimSuffix(name, ext)
	dot := strings.LastIndexByte(stem, '.')
	if dot < 1 {
		return "", 0, false
	}
	round, err := strconv.Atoi(stem[dot+1:])
	if err != nil || round < 1 || name != genName(stem[:dot], round, ext) {
		return "", 0, false
	}
	return stem[:dot], round, true
}

func (s *Store) genPath(id string, round int, ext string) string {
	return filepath.Join(s.dir, ckptDir, genName(id, round, ext))
}

// generations lists the rounds the job has a file of under ckpt/,
// newest first.
func (s *Store) generations(id string) []int {
	entries, _ := os.ReadDir(filepath.Join(s.dir, ckptDir))
	var rounds []int
	for _, e := range entries {
		if gid, r, ok := splitGen(e.Name()); ok && gid == id {
			rounds = append(rounds, r)
		}
	}
	slices.Sort(rounds)
	rounds = slices.Compact(rounds) // a whole generation is two files
	slices.Reverse(rounds)
	return rounds
}

// removeGen unlinks one generation, the sidecar that commits it first.
func (s *Store) removeGen(id string, round int) {
	os.Remove(s.genPath(id, round, progressExt))
	os.Remove(s.genPath(id, round, ckptExt))
}

// SaveBoundary persists the boundary after round p.Round of an
// in-flight job as a new generation: the sim checkpoint, then — the
// commit — the progress sidecar, each onto a name nothing holds, and
// last the unlink of the generation it supersedes. A crash anywhere in
// between leaves the newest committed pair whole for LoadBoundary.
func (s *Store) SaveBoundary(j Job, p Progress, ckpt []byte) error {
	path := s.genPath(j.ID, p.Round, ckptExt)
	if err := atomicfile.Write(path, ckptTemp, ckpt); err != nil {
		return fmt.Errorf("sweep: writing checkpoint %s: %w", path, err)
	}
	return s.SaveProgress(j, p)
}

// SaveProgress is the commit half of SaveBoundary: it atomically writes
// the sidecar of generation p.Round, then unlinks the generation that
// was the job's newest until now.
func (s *Store) SaveProgress(j Job, p Progress) error {
	buf, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("sweep: encoding progress: %w", err)
	}
	path := s.genPath(j.ID, p.Round, progressExt)
	if err := atomicfile.Write(path, progressTemp, buf); err != nil {
		return fmt.Errorf("sweep: writing progress %s: %w", path, err)
	}
	s.genMu.Lock()
	prev := s.gen[j.ID]
	s.gen[j.ID] = p.Round
	s.genMu.Unlock()
	if prev != 0 && prev != p.Round {
		s.removeGen(j.ID, prev)
	}
	return nil
}

// LoadBoundary returns the handoff an earlier execution of the job left
// behind: the newest generation whose sidecar names its own round and
// forms a sound handoff with its checkpoint (see soundHandoff), as the
// sidecar and the checkpoint's path. Every other file of the job — a
// newer generation a crash tore, older ones it had no time to unlink,
// an orphan checkpoint — is removed, so ok=false leaves the job nothing.
func (s *Store) LoadBoundary(j Job) (p Progress, ckptPath string, ok bool) {
	chosen := 0
	for _, r := range s.generations(j.ID) {
		if chosen == 0 {
			q, err := s.readProgress(j.ID, r)
			if err == nil && q.Round == r && soundHandoff(j, s.genPath(j.ID, r, ckptExt), q) {
				p, chosen = q, r
				continue
			}
		}
		s.removeGen(j.ID, r)
	}
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if chosen == 0 {
		delete(s.gen, j.ID)
		return Progress{}, "", false
	}
	s.gen[j.ID] = chosen
	return p, s.genPath(j.ID, chosen, ckptExt), true
}

func (s *Store) readProgress(id string, round int) (Progress, error) {
	var p Progress
	buf, err := os.ReadFile(s.genPath(id, round, progressExt))
	if err == nil {
		err = json.Unmarshal(buf, &p)
	}
	return p, err
}

// sink is the Scheduler's jobSink for j: the store itself.
func (s *Store) sink(j Job) *jobSink {
	return &jobSink{
		load: func() (Progress, string, bool) { return s.LoadBoundary(j) },
		save: func(p Progress, ckpt []byte) error { return s.SaveBoundary(j, p, ckpt) },
	}
}

// DropTransient removes every generation of the job (used when falling
// back to a from-scratch run, and once its result is recorded).
func (s *Store) DropTransient(j Job) { s.dropTransient(j.ID) }

func (s *Store) dropTransient(id string) {
	for _, r := range s.generations(id) {
		s.removeGen(id, r)
	}
	s.genMu.Lock()
	delete(s.gen, id)
	s.genMu.Unlock()
}

// timingEntry is one line of the transient timings sidecar.
type timingEntry struct {
	ID          string  `json:"id"`
	HostSeconds float64 `json:"host_seconds"`
}

// loadTimings reads the transient timings sidecar (best-effort: a
// corrupt or missing file just means no ETA seed).
func (s *Store) loadTimings() {
	data, err := os.Open(filepath.Join(s.dir, timingsName))
	if err != nil {
		return
	}
	defer data.Close()
	sc := bufio.NewScanner(data)
	for sc.Scan() {
		var t timingEntry
		if json.Unmarshal(sc.Bytes(), &t) == nil && t.ID != "" {
			s.timings[t.ID] = t.HostSeconds
		}
	}
}

// RecordTiming appends a job's real host wall-clock cost to the
// transient timings sidecar (see timingsName). Timing is advisory — a
// write failure costs ETA accuracy on the next resume, nothing else.
func (s *Store) RecordTiming(id string, hostSeconds float64) error {
	line, err := json.Marshal(timingEntry{ID: id, HostSeconds: hostSeconds})
	if err != nil {
		return fmt.Errorf("sweep: encoding timing: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, timingsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: opening timings: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: appending timing: %w", err)
	}
	s.timings[id] = hostSeconds
	return nil
}

// HostSecondsOf returns a completed job's recorded host wall-clock
// cost, when this store (or the killed run it resumes) measured one.
func (s *Store) HostSecondsOf(id string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.timings[id]
	return v, ok
}

// Compact rewrites the manifest with the given jobs' entries first, in
// job order, followed by any other recorded entries sorted by ID. A
// completed sweep therefore leaves a manifest whose bytes depend only
// on the grid — not on scheduling, concurrency, or how many times the
// sweep was killed and resumed. The rewrite is atomic.
func (s *Store) Compact(jobs []Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ordered []*Entry
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			continue
		}
		seen[j.ID] = true
		if e, ok := s.entries[j.ID]; ok {
			ordered = append(ordered, e)
		}
	}
	var extra []string
	for id := range s.entries {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		ordered = append(ordered, s.entries[id])
	}

	var buf bytes.Buffer
	for _, e := range ordered {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("sweep: encoding manifest entry: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(s.dir, manifestName)
	if s.f != nil {
		s.f.Close()
	}
	// openManifest recognizes an in-flight compaction by this pattern.
	if err := atomicfile.Write(path, ".manifest-*", buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: compacting manifest: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: reopening manifest: %w", err)
	}
	s.f = f
	// A compacted store is a completed sweep: drop the transient host
	// timings so the directory's bytes depend only on the grid.
	os.Remove(filepath.Join(s.dir, timingsName))
	s.timings = map[string]float64{}
	return nil
}
