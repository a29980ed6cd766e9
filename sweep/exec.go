package sweep

import (
	"context"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// Handoff is what an earlier execution of a job left for the next one:
// the progress sidecar of a checkpoint boundary and the sim checkpoint's
// bytes, as Store.LoadBoundary reads them and a fleet lease carries them.
type Handoff struct {
	Progress Progress
	Ckpt     []byte
	decoded  *sim.Checkpoint // set by soundHandoff, consumed by the resume
}

// jobSink is where one executing job keeps its transient state: the
// Scheduler's is the Store (Store.sink), a fleet worker's the lease
// callbacks (RunLeased). The job's Runner writes no file either way:
// every checkpoint it encodes reaches save and nothing else.
type jobSink struct {
	// load returns the handoff an earlier execution left. It returns
	// only what soundHandoff accepted — the sink applies the rule where
	// it finds the pair, once — and with ok=false it has removed
	// whatever it found.
	load func() (h Handoff, ok bool)
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
// rerun from scratch). It decodes h.Ckpt, and keeps what it decoded
// for the resume when the rule holds.
func soundHandoff(j Job, h *Handoff) bool {
	cp, err := sim.DecodeCheckpoint(h.Ckpt)
	if err != nil || cp.Scheme != j.Scheme || cp.Round != h.Progress.Round || cp.Round >= j.Rounds {
		return false
	}
	h.decoded = cp
	return true
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
		h      Handoff
		resume bool
		opts   []sim.RunOption
	)
	if sink != nil {
		h, resume = sink.load()
		// Stated even though zero: a resumed Runner would otherwise
		// inherit the cadence its checkpoint was written at.
		opts = append(opts, sim.WithCheckpointEvery(checkpointEvery))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The sidecar's accumulators, seeded from the handoff — not merged in
	// afterwards — so a resumed job adds its rounds in the floating-point
	// order of an uninterrupted run. RunJob seeds the result the same way
	// from the handoff's copy of sum, taken before the first round.
	sum, totalSec := ledgerOf(h.Progress.Components), h.Progress.TotalSeconds
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
			onResumed(h.Progress.Round)
		}
		from = &experiment.Handoff{Checkpoint: h.decoded, Round: h.Progress.Round, Ledger: sum, TotalSeconds: totalSec}
	}
	res, err := experiment.RunJob(ctx, j, from, opts...)
	if sinkErr != nil {
		return JobResult{}, sinkErr
	}
	return res, err
}
