package sweep

import (
	"context"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// jobSink is where one executing job keeps its transient state: the
// Scheduler's is the Store (Store.sink), a fleet worker's the lease
// callbacks, with its scratch directory staging a handoff (RunLeased).
// The job's Runner writes no file either way: every checkpoint it
// encodes reaches save and nothing else.
type jobSink struct {
	// load returns the handoff an earlier execution left: the progress
	// sidecar and the path of the sim checkpoint it goes with. It returns
	// only what soundHandoff accepted — the sink applies the rule where
	// it finds the pair, once — and with ok=false it has removed whatever
	// it found.
	load func() (p Progress, ckptPath string, ok bool)
	// save persists the checkpoint the Runner just encoded and its
	// sidecar. ckpt is the Runner's buffer, valid during the call only.
	// An error aborts the job.
	save func(p Progress, ckpt []byte) error
}

// soundHandoff is the resume-soundness rule: a job may continue from a
// sim checkpoint only when the checkpoint and the progress sidecar name
// the same round of the job's scheme, with rounds still to run. Seeding
// the cumulative ledger from a sidecar of any other round would corrupt
// every later sum — so anything else is discarded (never wrong, only
// slower: the Store falls back to the other slot, a lease to a
// rerun from scratch).
func soundHandoff(j Job, ckptPath string, prior Progress) bool {
	scheme, round, err := sim.PeekCheckpoint(ckptPath)
	return err == nil && scheme == j.Scheme && round == prior.Round && round < j.Rounds
}

// runJob executes one job to completion: resumed from the sink's
// handoff when it has one, from scratch otherwise. With a sink and a
// positive checkpointEvery the run checkpoints at that cadence and
// hands the sink the pair of every boundary but the one after the last
// round — nothing could resume from that one (soundHandoff), and saving
// it would supersede the last pair something can; a nil sink keeps no
// transient state. onResumed (once, before training) and onRound (after
// every round) may be nil and run on the training goroutine.
func runJob(ctx context.Context, j Job, checkpointEvery int, sink *jobSink,
	onResumed func(round int), onRound func(round, rounds int, hostSeconds float64)) (JobResult, error) {
	var (
		prior    Progress
		ckptPath string
		resume   bool
		opts     []sim.RunOption
	)
	if sink != nil {
		prior, ckptPath, resume = sink.load()
		// Stated even though empty or zero: a resumed Runner would
		// otherwise inherit the handoff file as its path, and the cadence
		// it was written at.
		opts = append(opts, sim.WithCheckpointPath(""), sim.WithCheckpointEvery(checkpointEvery))
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
		if sink != nil && e.Checkpoint != nil && e.Round < j.Rounds && sinkErr == nil {
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
		from = &experiment.Handoff{CheckpointPath: ckptPath, Round: prior.Round, Ledger: sum, TotalSeconds: totalSec}
	}
	res, err := experiment.RunJob(ctx, j, from, opts...)
	if sinkErr != nil {
		return JobResult{}, sinkErr
	}
	return res, err
}
