package sweep

import (
	"context"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// Handoff is what an earlier execution of a job left for the next one:
// the sim checkpoint's bytes, as Store.LoadBoundary reads them and a
// fleet lease carries them. The checkpoint is the job's whole resumable
// state — its round, its curve, its latency sums and its trainer.
type Handoff struct {
	// Round is the round the checkpoint's header states, as the sink's
	// soundHandoff read it; a handoff handed to RunLeased need not set it.
	Round int
	Ckpt  []byte
}

// jobSink is where one executing job keeps its transient state: the
// Scheduler's is the Store (Store.sink), a fleet worker's the lease
// callbacks (RunLeased). The job's Runner writes no file either way:
// every checkpoint it encodes reaches save and nothing else.
type jobSink struct {
	// load returns the handoff an earlier execution left. It returns
	// only what soundHandoff accepted — the sink applies the rule where
	// it finds the checkpoint, once — and with ok=false it has removed
	// whatever it found.
	load func() (h Handoff, ok bool)
	// save persists the checkpoint the Runner just encoded after round.
	// ckpt is the Runner's buffer, valid during the call only. An error
	// aborts the job.
	save func(round int, ckpt []byte) error
	// drop removes what load returned, once its body has failed to
	// decode; nil keeps nothing to remove.
	drop func()
}

// soundHandoff is the resume-soundness rule: a job may continue from a
// sim checkpoint only when its header names the job's scheme and a
// round with rounds still to run. Anything else is discarded (never
// wrong, only slower: the Store falls back to the other slot, a lease
// to a rerun from scratch). It reads the header alone and sets h.Round
// from it; the body is decoded once, by the resume (runJob).
func soundHandoff(j Job, h *Handoff) bool {
	scheme, round, err := sim.DecodeCheckpointHeader(h.Ckpt)
	if err != nil || scheme != j.Scheme || round >= j.Rounds {
		return false
	}
	h.Round = round
	return true
}

// runJob executes one job to completion: resumed from the sink's
// handoff when it has one, from scratch otherwise. With a sink and a
// positive checkpointEvery the run checkpoints at that cadence and
// hands the sink every boundary but the one after the last round —
// nothing could resume from that one (soundHandoff), and saving it
// would supersede the last one something can; a nil sink keeps no
// transient state. A handoff whose body does not decode under a sound
// header — no kill leaves one — is dropped, and the job runs from round
// 0. onResumed (once, before training) and onRound (after every round)
// may be nil and run on the training goroutine.
func runJob(ctx context.Context, j Job, checkpointEvery int, sink *jobSink,
	onResumed func(round int), onRound func(round, rounds int, hostSeconds float64)) (JobResult, error) {
	var (
		from *sim.Checkpoint
		opts []sim.RunOption
	)
	if sink != nil {
		if h, ok := sink.load(); ok {
			var err error
			if from, err = sim.DecodeCheckpoint(h.Ckpt); err != nil && sink.drop != nil {
				sink.drop()
			}
		}
		// Stated even though zero: a resumed Runner would otherwise
		// inherit the cadence its checkpoint was written at.
		opts = append(opts, sim.WithCheckpointEvery(checkpointEvery))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var sinkErr error
	opts = append(opts, sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
		if sink != nil && e.Checkpoint != nil && e.Round < j.Rounds && sinkErr == nil {
			if sinkErr = sink.save(e.Round, e.Checkpoint); sinkErr != nil {
				// The cancellation lands at the next round boundary.
				cancel()
			}
		}
		if onRound != nil {
			onRound(e.Round, e.Rounds, e.HostSeconds)
		}
	})))

	if from != nil && onResumed != nil {
		onResumed(from.Round)
	}
	res, err := experiment.RunJob(ctx, j, from, opts...)
	if sinkErr != nil {
		return JobResult{}, sinkErr
	}
	return res, err
}
