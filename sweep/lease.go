package sweep

// Leased execution: the pieces the fleet job plane (gsfl/fleet) needs
// to run one job on a remote worker while keeping the determinism
// contract. The coordinator owns the Store; a worker gets a
// Job (and possibly a checkpoint handoff) over the wire, executes it
// with RunLeased against a scratch directory, streams checkpoints back
// through a callback, and ships the result home as ResultParts. All
// cross-process payloads are JSON: Go's float64 encoding round-trips
// exactly, so a result reconstructed on the coordinator is bit-equal to
// one computed in-process.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gsfl/internal/experiment"
	"gsfl/internal/metrics"
	"gsfl/internal/simnet"
)

// wireJob is a Job's cross-process encoding. Job.Spec is json:"-" (a
// spec has no place in manifests), so the fleet wire spells it out
// explicitly.
type wireJob struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Scheme    string `json:"scheme"`
	Rounds    int    `json:"rounds"`
	EvalEvery int    `json:"eval_every"`
	Spec      Spec   `json:"spec"`
}

// MarshalJobWire encodes a job, spec included, for the fleet wire.
func MarshalJobWire(j Job) ([]byte, error) {
	return json.Marshal(wireJob{
		ID: j.ID, Name: j.Name, Scheme: j.Scheme,
		Rounds: j.Rounds, EvalEvery: j.EvalEvery, Spec: j.Spec,
	})
}

// UnmarshalJobWire decodes a job received over the fleet wire and
// verifies its integrity by recomputing the content-hash ID: a job
// whose bytes do not hash to the ID it claims must not execute under
// that identity.
func UnmarshalJobWire(data []byte) (Job, error) {
	var w wireJob
	if err := json.Unmarshal(data, &w); err != nil {
		return Job{}, fmt.Errorf("sweep: decoding wire job: %w", err)
	}
	j := Job{ID: w.ID, Name: w.Name, Scheme: w.Scheme, Rounds: w.Rounds, EvalEvery: w.EvalEvery, Spec: w.Spec}
	id, err := experiment.RehashJob(j)
	if err != nil {
		return Job{}, fmt.Errorf("sweep: wire job %s: %w", w.Name, err)
	}
	if id != w.ID {
		return Job{}, fmt.Errorf("sweep: wire job %s claims ID %s but hashes to %s", w.Name, w.ID, id)
	}
	return j, nil
}

// ResultParts is a JobResult's cross-process encoding: everything the
// coordinator needs to reconstruct the result (and so the manifest
// entry) bit-identically, without shipping internal ledger types.
type ResultParts struct {
	TotalSeconds float64            `json:"total_seconds"`
	Components   map[string]float64 `json:"components"`
	Points       []Point            `json:"points"`
}

// componentsOf flattens a ledger into the name-keyed map every
// persisted form carries (manifest entries, progress sidecars, wire
// results); components that never accrued time are omitted.
func componentsOf(l *simnet.Ledger) map[string]float64 {
	m := map[string]float64{}
	for _, c := range simnet.Components() {
		if v := l.Get(c); v != 0 {
			m[c.String()] = v
		}
	}
	return m
}

// ledgerOf is componentsOf's inverse.
func ledgerOf(m map[string]float64) simnet.Ledger {
	var l simnet.Ledger
	for _, c := range simnet.Components() {
		if v, ok := m[c.String()]; ok {
			l.Add(c, v)
		}
	}
	return l
}

// PartsOf flattens a completed job's result for the fleet wire (and,
// through entryOf, for the manifest).
func PartsOf(res JobResult) ResultParts {
	p := ResultParts{TotalSeconds: res.TotalSeconds, Components: componentsOf(&res.Ledger)}
	if res.Curve != nil {
		for _, pt := range res.Curve.Points {
			p.Points = append(p.Points, Point(pt))
		}
	}
	return p
}

// ResultFrom reconstructs a JobResult from its parts, paired with the
// caller's own canonical Job — exactly the inverse of PartsOf, whether
// the parts crossed the fleet wire or came out of a manifest entry.
func ResultFrom(j Job, parts ResultParts) JobResult {
	res := JobResult{Job: j, TotalSeconds: parts.TotalSeconds, Ledger: ledgerOf(parts.Components)}
	res.Curve = &metrics.Curve{Scheme: j.Scheme, Points: make([]metrics.Point, len(parts.Points))}
	for i, p := range parts.Points {
		res.Curve.Points[i] = metrics.Point(p)
	}
	return res
}

// LeaseCheckpoint is the handoff state attached to a lease of a
// partially-executed job: the progress sidecar plus the sim checkpoint
// bytes a previous worker uploaded before dying.
type LeaseCheckpoint struct {
	Progress Progress
	Ckpt     []byte
}

// LeaseCallbacks observe a leased job's execution. All callbacks are
// invoked synchronously from the training goroutine, in round order.
type LeaseCallbacks struct {
	// OnRound fires after every completed round.
	OnRound func(round, rounds int, hostSeconds float64)
	// OnResumed fires once, before training, when the job continues from
	// the handoff checkpoint rather than starting fresh.
	OnResumed func(round int)
	// OnCheckpoint fires at every checkpoint boundary but the one after
	// the last round (the result follows at once, and nothing resumes a
	// finished job) with the progress sidecar and the checkpoint bytes
	// just encoded — the Runner's own buffer, valid during the call
	// only. An error aborts the job (the worker lost its lease, or the
	// coordinator is gone).
	OnCheckpoint func(p Progress, ckpt []byte) error
}

// RunLeased executes one job on a fleet worker: the Scheduler's
// executor (runJob) over a sink made of the lease. A sound handoff —
// staged in scratchDir for the length of the job, the only file a
// lease writes — seeds a bit-identical mid-job resume, any other is
// discarded where it is staged (soundHandoff, the sink's one call);
// checkpoint bytes go from the Runner's buffer straight to
// cb.OnCheckpoint for the coordinator to persist, never to the
// worker's disk: the next leaseholder resumes from the coordinator's
// copy, so nothing would read one.
func RunLeased(ctx context.Context, j Job, scratchDir string, checkpointEvery int, handoff *LeaseCheckpoint, cb LeaseCallbacks) (JobResult, error) {
	path := filepath.Join(scratchDir, j.ID+".ckpt")
	defer os.Remove(path)
	sink := &jobSink{
		// The handoff arrived with the lease: stage its bytes for the
		// executor to resume from. One that cannot be staged, or that the
		// resume rule turns down, is no handoff.
		load: func() (Progress, string, bool) {
			if handoff == nil || len(handoff.Ckpt) == 0 {
				return Progress{}, "", false
			}
			if os.WriteFile(path, handoff.Ckpt, 0o644) != nil || !soundHandoff(j, path, handoff.Progress) {
				os.Remove(path)
				return Progress{}, "", false
			}
			return handoff.Progress, path, true
		},
		save: func(p Progress, ckpt []byte) error {
			if cb.OnCheckpoint == nil {
				return nil
			}
			return cb.OnCheckpoint(p, ckpt)
		},
	}
	return runJob(ctx, j, checkpointEvery, sink, cb.OnResumed, cb.OnRound)
}
