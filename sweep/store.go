package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"gsfl/internal/atomicfile"
	"gsfl/internal/metrics"
)

// Store layout under its directory:
//
//	manifest.jsonl           one Entry per completed job, appended as jobs
//	                         finish, rewritten into job order on Compact
//	curves/<id>.csv          the job's training curve (trace long format)
//	ckpt/<id>.<s>.ckpt       slot s (a or b) of an in-flight job: the sim
//	                         checkpoint of one of its boundaries
//	                         (transient)
//	ckpt/<id>.<s>.progress   the slot's record: the sweep-side cumulative
//	                         ledger at that boundary, and the length and
//	                         CRC-32C of the checkpoint it commits
//	                         (transient)
//
// Everything durable is keyed by the job's content-hash ID, so a store
// is shared safely by overlapping grids and across resumed runs.
//
// An in-flight job has two slots, and a boundary rewrites the one that
// does not hold the newest committed boundary: its checkpoint at offset
// 0, then its record, whose landing is the commit. The store opens a
// slot's two files at its first write and holds them until the job is
// recorded or dropped, or the store closes, so from a job's third
// boundary on a boundary is two pwrites — no create, rename or unlink.
// A file is cut only when what it holds shrinks, and never to zero: a
// rename over a live name or a truncation to zero makes ext4
// (auto_da_alloc) write the file back at once, 200 KB to the block
// device every round for state dropped a few rounds later, while a file
// rewritten in place stays in the page cache. A kill mid-boundary tears
// only the spare slot, and a torn slot fails its checksums
// (LoadBoundary), so the other slot's sound boundary is on disk at every
// instant from the first boundary on.
const (
	manifestName = "manifest.jsonl"
	// manifestTemp is the pattern of the temp file Compact writes the
	// new manifest to before renaming it over the old.
	manifestTemp = ".manifest-*"
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
)

// A slot's files, as slotPair indexes them.
const (
	ckptFile = iota
	progressFile
)

var (
	slotExt = [2]string{".ckpt", ".progress"}
	// slotTag names the two slots; no name of an older layout ends its
	// stem in one.
	slotTag = [2]string{".a", ".b"}
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
// not carry. Round must match the checkpoint's completed rounds; a
// slot whose pair does not is discarded for the other slot, or a rerun
// from scratch — determinism is never at risk, only work.
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

	// slotMu guards slots alone, apart from mu: a job's boundary must
	// not wait behind another job's Record, which fsyncs under mu. A
	// job's slotPair has one user at a time — its runner, or the fleet
	// coordinator under its own lock — and no lock of its own.
	slotMu sync.Mutex
	slots  map[string]*slotPair // job ID -> its held slots; nil once closed
}

// slotPair is what an open store holds of one in-flight job: the files
// of its two slots, each opened at its first write (or by LoadBoundary)
// and held until the job's slots are dropped or the store closes, and
// what each holds.
type slotPair struct {
	file   [2][2]*os.File // [slot][ckptFile or progressFile]; nil until opened
	size   [2][2]int64    // bytes each file holds
	crc    [2]uint32      // CRC-32C of each slot's checkpoint
	newest int            // slot of the newest committed boundary; -1 for none
}

// spare is the slot a boundary writes: the one not holding the newest
// committed boundary.
func (p *slotPair) spare() int {
	if p.newest == 0 {
		return 1
	}
	return 0
}

// closeSlot closes the files the pair holds of slot k.
func (p *slotPair) closeSlot(k int) {
	for file, f := range p.file[k] {
		if f != nil {
			f.Close()
			p.file[k][file] = nil
		}
	}
}

// close closes every file the pair holds; a nil pair holds none.
func (p *slotPair) close() {
	if p == nil {
		return
	}
	for k := range p.file {
		p.closeSlot(k)
	}
}

// OpenStore opens (creating if needed) a sweep results directory and
// loads its manifest. A trailing partially-written manifest line (crash
// mid-append) is dropped; complete entries before it stand. Opening a
// store another process holds open fails with ErrStoreLocked — so no
// other process can be compacting the manifest while it is read.
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
	// not a slot file there has no reader: the files of an older layout
	// (an <id>.<round>.ckpt generation, a fixed-name <id>.ckpt, the temp
	// file of a writer killed before its rename) — that job reruns from
	// scratch, to the same bytes. Nor does the temp file of a Compact
	// killed before its rename (manifestTemp): the manifest it was to
	// replace is whole.
	entries, _ := os.ReadDir(filepath.Join(dir, ckptDir))
	for _, e := range entries {
		if !isSlotName(e.Name()) {
			os.Remove(filepath.Join(dir, ckptDir, e.Name()))
		}
	}
	temps, _ := filepath.Glob(filepath.Join(dir, manifestTemp))
	for _, name := range temps {
		os.Remove(name)
	}
	s := &Store{dir: dir, entries: map[string]*Entry{}, timings: map[string]float64{}, slots: map[string]*slotPair{}, lock: lock}
	path := filepath.Join(dir, manifestName)
	if data, err := os.Open(path); err == nil {
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

// StoreExists reports whether dir already holds a sweep manifest —
// i.e. opening it would continue (or collide with) an earlier sweep.
func StoreExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Close releases the manifest handle, every held slot file and the
// store lock. The slots stay on disk: they are the handoff a later
// store resumes from.
func (s *Store) Close() error {
	s.slotMu.Lock()
	for _, p := range s.slots {
		p.close()
	}
	s.slots = nil
	s.slotMu.Unlock()
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

// isSlotName reports whether name is a slot file of some job: the only
// names a store keeps under ckpt/.
func isSlotName(name string) bool {
	for _, ext := range slotExt {
		stem, ok := strings.CutSuffix(name, ext)
		if !ok {
			continue
		}
		for _, tag := range slotTag {
			if id, ok := strings.CutSuffix(stem, tag); ok && id != "" {
				return true
			}
		}
	}
	return false
}

// slotPath names one file of one of a job's two slots.
func (s *Store) slotPath(id string, slot, file int) string {
	return filepath.Join(s.dir, ckptDir, id+slotTag[slot]+slotExt[file])
}

// slotRecord is a slot's progress file: the sidecar and the identity of
// the checkpoint it commits.
type slotRecord struct {
	Progress
	CkptBytes int64  `json:"ckpt_bytes"`
	CkptCRC   uint32 `json:"ckpt_crc32c"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord spells a record as its JSON, a newline, and the JSON's
// own CRC-32C in eight hex digits and a newline. A record is rewritten
// in place, so a crash can leave one torn; the trailing checksum is
// what tells.
func encodeRecord(r slotRecord) ([]byte, error) {
	buf, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(buf, "\n%08x\n", crc32.Checksum(buf, castagnoli)), nil
}

// decodeRecord is encodeRecord's inverse. What follows a whole record —
// the tail of a longer one it was written over, not yet cut — is not
// read.
func decodeRecord(buf []byte) (slotRecord, bool) {
	var r slotRecord
	body, rest, ok := bytes.Cut(buf, []byte{'\n'})
	if !ok || len(rest) < 9 || rest[8] != '\n' {
		return r, false
	}
	sum, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil || uint32(sum) != crc32.Checksum(body, castagnoli) {
		return r, false
	}
	return r, json.Unmarshal(body, &r) == nil
}

// pair returns the slots the store holds for a job, an empty pair for
// a job it holds none of.
func (s *Store) pair(id string) (*slotPair, error) {
	s.slotMu.Lock()
	defer s.slotMu.Unlock()
	if s.slots == nil {
		return nil, fmt.Errorf("sweep: store is closed")
	}
	p := s.slots[id]
	if p == nil {
		p = &slotPair{newest: -1}
		s.slots[id] = p
	}
	return p, nil
}

// release forgets the job's held slots and closes their files.
func (s *Store) release(id string) {
	s.slotMu.Lock()
	p := s.slots[id]
	delete(s.slots, id)
	s.slotMu.Unlock()
	p.close()
}

// write rewrites one file of slot k to hold data, opening it at its
// first use.
func (s *Store) write(id string, p *slotPair, k, file int, data []byte) error {
	f := p.file[k][file]
	if f == nil {
		var err error
		if f, err = os.OpenFile(s.slotPath(id, k, file), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		p.file[k][file], p.size[k][file] = f, fi.Size()
	}
	had := p.size[k][file]
	// Until the write lands whole, the file may hold the longer of the two.
	p.size[k][file] = max(had, int64(len(data)))
	if err := atomicfile.Overwrite(f, had, data); err != nil {
		return err
	}
	p.size[k][file] = int64(len(data))
	return nil
}

// SaveBoundary persists the boundary after round p.Round of an
// in-flight job into its spare slot: the sim checkpoint, then — the
// commit — the slot's record. A crash anywhere in between tears only
// the spare slot and leaves the other's boundary whole for
// LoadBoundary. ckpt is only read during the call, never kept: the
// caller may hand in a buffer it reuses (a Runner's, or the fleet
// coordinator's frame).
func (s *Store) SaveBoundary(j Job, p Progress, ckpt []byte) error {
	pair, err := s.pair(j.ID)
	if err != nil {
		return err
	}
	k := pair.spare()
	if err := s.write(j.ID, pair, k, ckptFile, ckpt); err != nil {
		return fmt.Errorf("sweep: writing checkpoint %s: %w", s.slotPath(j.ID, k, ckptFile), err)
	}
	pair.crc[k] = crc32.Checksum(ckpt, castagnoli)
	return s.SaveProgress(j, p)
}

// SaveProgress is the commit half of SaveBoundary: it writes the spare
// slot's record — p, and the length and CRC of the checkpoint the slot
// holds — and makes that slot the newest.
func (s *Store) SaveProgress(j Job, p Progress) error {
	pair, err := s.pair(j.ID)
	if err != nil {
		return err
	}
	k := pair.spare()
	rec, err := encodeRecord(slotRecord{Progress: p, CkptBytes: pair.size[k][ckptFile], CkptCRC: pair.crc[k]})
	if err != nil {
		return fmt.Errorf("sweep: encoding progress: %w", err)
	}
	if err := s.write(j.ID, pair, k, progressFile, rec); err != nil {
		return fmt.Errorf("sweep: writing progress %s: %w", s.slotPath(j.ID, k, progressFile), err)
	}
	pair.newest = k
	return nil
}

// LoadBoundary returns the handoff an earlier execution of the job left
// behind: of the job's two slots, the newer one whose record commits
// the checkpoint beside it (its length and CRC match) and forms a sound
// handoff with it (see soundHandoff), as the record's sidecar and the
// checkpoint's bytes, read once. It opens the job's four names and no
// others, holds the chosen slot's files for the job's next boundaries,
// and removes the other slot — torn by a crash, or just older — so
// ok=false leaves the job nothing.
func (s *Store) LoadBoundary(j Job) (h Handoff, ok bool) {
	s.release(j.ID)
	pair := &slotPair{newest: -1}
	for k := range slotTag {
		if q, sound := s.openSlot(j, pair, k); sound && (pair.newest < 0 || q.Progress.Round > h.Progress.Round) {
			h, pair.newest = q, k
		}
	}
	for k := range slotTag {
		if k != pair.newest {
			pair.closeSlot(k)
			s.removeSlot(j.ID, k)
		}
	}
	if pair.newest < 0 {
		return Handoff{}, false
	}
	s.slotMu.Lock()
	defer s.slotMu.Unlock()
	if s.slots == nil {
		pair.close()
		return Handoff{}, false
	}
	s.slots[j.ID] = pair
	return h, true
}

// openSlot opens slot k's two files into pair and returns what the
// slot holds, sound=true when the record is whole, commits the
// checkpoint beside it, and forms a sound handoff with it.
func (s *Store) openSlot(j Job, pair *slotPair, k int) (h Handoff, sound bool) {
	var body [2][]byte
	for file := range slotExt {
		f, err := os.OpenFile(s.slotPath(j.ID, k, file), os.O_RDWR, 0)
		if err != nil {
			return Handoff{}, false
		}
		pair.file[k][file] = f
		if body[file], err = io.ReadAll(f); err != nil {
			return Handoff{}, false
		}
		pair.size[k][file] = int64(len(body[file]))
	}
	r, ok := decodeRecord(body[progressFile])
	crc := crc32.Checksum(body[ckptFile], castagnoli)
	h = Handoff{Progress: r.Progress, Ckpt: body[ckptFile]}
	if !ok || r.CkptBytes != int64(len(h.Ckpt)) || r.CkptCRC != crc || !soundHandoff(j, &h) {
		return Handoff{}, false
	}
	pair.crc[k] = crc
	return h, true
}

// sink is the Scheduler's jobSink for j: the store itself.
func (s *Store) sink(j Job) *jobSink {
	return &jobSink{
		load: func() (Handoff, bool) { return s.LoadBoundary(j) },
		save: func(p Progress, ckpt []byte) error { return s.SaveBoundary(j, p, ckpt) },
	}
}

// DropTransient releases and removes both slots of the job (used when
// falling back to a from-scratch run, and once its result is recorded).
func (s *Store) DropTransient(j Job) { s.dropTransient(j.ID) }

func (s *Store) dropTransient(id string) {
	s.release(id)
	for k := range slotTag {
		s.removeSlot(id, k)
	}
}

// removeSlot unlinks both files of the job's slot k.
func (s *Store) removeSlot(id string, k int) {
	for file := range slotExt {
		os.Remove(s.slotPath(id, k, file))
	}
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
	if err := atomicfile.Write(path, manifestTemp, buf.Bytes()); err != nil {
		// Nothing was renamed: the manifest and its append handle stand.
		return fmt.Errorf("sweep: compacting manifest: %w", err)
	}
	// The old handle appends to the replaced file now. Without a new
	// one the store is closed to Record, rather than writing where no
	// reader looks.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if s.f != nil {
		s.f.Close()
	}
	s.f = f // nil when the open failed
	if err != nil {
		return fmt.Errorf("sweep: reopening manifest: %w", err)
	}
	// A compacted store is a completed sweep: drop the transient host
	// timings so the directory's bytes depend only on the grid.
	os.Remove(filepath.Join(s.dir, timingsName))
	s.timings = map[string]float64{}
	return nil
}
