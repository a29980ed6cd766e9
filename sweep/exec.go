package sweep

import (
	"context"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// jobSink is where one executing job keeps its transient state: the
// Scheduler's is the Store (Store.sink), a fleet worker's the lease
// callbacks, with its scratch directory staging a handoff (RunLeased).
type jobSink struct {
	// ckptPath is where an earlier execution's sim checkpoint lives when
	// there is a handoff.
	ckptPath string
	// runnerWrites has the job's Runner rewrite ckptPath at every
	// checkpoint (the Store keeps its jobs' checkpoints on disk); without
	// it the bytes reach save alone (a lease checkpoints into the wire).
	runnerWrites bool
	// load returns the progress sidecar an earlier execution left with
	// the checkpoint at ckptPath, ok=false when there is none. Whether
	// the pair is usable is soundHandoff's call.
	load func() (Progress, bool)
	// save persists the sidecar of the checkpoint the Runner just encoded
	// (and, with runnerWrites, wrote). ckpt is the Runner's buffer, valid
	// during the call only. An error aborts the job.
	save func(p Progress, ckpt []byte) error
	// drop removes the checkpoint and its sidecar.
	drop func()
}

// soundHandoff is the resume-soundness rule: a job may continue from a
// sim checkpoint only when the checkpoint and the progress sidecar name
// the same round of the job's scheme, with rounds still to run. A crash
// between the two writes leaves the sidecar one checkpoint behind, and
// seeding the cumulative ledger from it would corrupt every later sum —
// so anything else is discarded and the job reruns from scratch (never
// wrong, only slower).
func soundHandoff(j Job, ckptPath string, prior Progress) bool {
	scheme, round, err := sim.PeekCheckpoint(ckptPath)
	return err == nil && scheme == j.Scheme && round == prior.Round && round < j.Rounds
}

// runJob executes one job to completion: resumed from the sink's
// handoff when it is sound, from scratch otherwise. With a sink and a
// positive checkpointEvery the run checkpoints at that cadence and
// hands the sink a progress sidecar at every boundary; a nil sink keeps
// no transient state. onResumed (once, before training) and onRound
// (after every round) may be nil and run on the training goroutine.
func runJob(ctx context.Context, j Job, checkpointEvery int, sink *jobSink,
	onResumed func(round int), onRound func(round, rounds int, hostSeconds float64)) (JobResult, error) {
	var (
		prior  Progress
		resume bool
		opts   []sim.RunOption
	)
	if sink != nil {
		if p, ok := sink.load(); ok && soundHandoff(j, sink.ckptPath, p) {
			prior, resume = p, true
		} else {
			sink.drop()
		}
		// Stated even when empty or zero: a resumed Runner would otherwise
		// inherit the handoff file as its path, and the cadence it was
		// written at.
		path := ""
		if sink.runnerWrites && checkpointEvery > 0 {
			path = sink.ckptPath
		}
		opts = append(opts, sim.WithCheckpointPath(path), sim.WithCheckpointEvery(checkpointEvery))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The sidecar's accumulators, seeded from the handoff — not merged in
	// afterwards — so a resumed job adds its rounds in the floating-point
	// order of an uninterrupted run. RunJob seeds the result the same way
	// from the handoff's copy of sum, taken before the first round.
	sum, totalSec := ledgerOf(prior.Components), prior.TotalSeconds
	var sinkErr error
	opts = append(opts, sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
		sum.Merge(e.Ledger)
		totalSec += e.RoundSeconds
		if sink != nil && e.Checkpoint != nil && sinkErr == nil {
			p := Progress{Round: e.Round, Components: componentsOf(&sum), TotalSeconds: totalSec}
			if sinkErr = sink.save(p, e.Checkpoint); sinkErr != nil {
				// The cancellation lands at the next round boundary.
				cancel()
			}
		}
		if onRound != nil {
			onRound(e.Round, e.Rounds, e.HostSeconds)
		}
	})))

	var from *experiment.Handoff
	if resume {
		if onResumed != nil {
			onResumed(prior.Round)
		}
		from = &experiment.Handoff{CheckpointPath: sink.ckptPath, Round: prior.Round, Ledger: sum, TotalSeconds: totalSec}
	}
	res, err := experiment.RunJob(ctx, j, from, opts...)
	if sinkErr != nil {
		return JobResult{}, sinkErr
	}
	return res, err
}
