package sim

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"gsfl/internal/atomicfile"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
	"gsfl/internal/wireless"
)

// checkpointVersion guards against reading incompatible files.
const checkpointVersion = 1

// checkpointFile is the on-disk layout of a run checkpoint: which
// scheme (and options) to rebuild, how far the run had progressed, the
// curve so far, and the trainer's complete mutable state. Everything is
// gob-encoded through plain exported structs, layered on the tensor
// serialization of internal/model's checkpoint format.
type checkpointFile struct {
	Version int
	Scheme  string
	Opts    schemes.FactoryOpts
	// EnvHash fingerprints the environment the run was built over;
	// Resume rejects an env that does not match, since continuing in a
	// different world would silently break the bit-identical contract.
	EnvHash uint64
	// EvalEvery/CkptEvery are the run's cadences; Resume inherits them
	// unless overridden, so a resumed run keeps evaluating and
	// checkpointing as the original did.
	EvalEvery int
	CkptEvery int
	// Round is the number of completed rounds; Elapsed their cumulative
	// latency; Points the evaluations recorded so far.
	Round   int
	Elapsed float64
	Points  []Point
	State   schemes.TrainerState
}

// envFingerprint hashes the run-relevant identity of an environment:
// everything that shapes training numerics or latency pricing and is
// not already carried inside the trainer state. Two envs built from the
// same spec and seed hash equal; changing clients, data sizes,
// hyperparameters, hardware, or bandwidth changes the hash.
func envFingerprint(env *Env) uint64 {
	trainSizes := make([]int, len(env.Train))
	for i, d := range env.Train {
		trainSizes[i] = d.Len()
	}
	popID := ""
	caps := env.Fleet.Capacities()
	if env.Pop != nil {
		popID = env.Pop.Identity()
		// The live fleet carries the current round's device-profile
		// multipliers; fingerprint the pre-scaling capacities so a save
		// mid-run and a fresh build hash the same world.
		if bc, ok := env.Pop.(interface{ BaseCapacities() []float64 }); ok && bc.BaseCapacities() != nil {
			caps = bc.BaseCapacities()
		}
	}
	h := fnv.New64a()
	// gob encoding of a fixed struct layout is deterministic.
	_ = gob.NewEncoder(h).Encode(struct {
		InShape       []int
		Cut           int
		Hyper         schemes.Hyper
		Seed          int64
		Allocator     string
		Capacities    []float64
		ServerSeconds float64 // server compute identity via a fixed-FLOP probe
		Wireless      wireless.Config
		TrainSizes    []int
		TestLen       int
		Population    string // Cohort.Identity(); "" without a population
	}{
		InShape:       env.Arch.InShape,
		Cut:           env.Cut,
		Hyper:         env.Hyper,
		Seed:          env.Seed,
		Allocator:     env.Alloc.Name(),
		Capacities:    caps,
		ServerSeconds: env.Fleet.Server.ComputeSeconds(1 << 30),
		Wireless:      env.Channel.Config(),
		TrainSizes:    trainSizes,
		TestLen:       env.Test.Len(),
		Population:    popID,
	})
	// The numeric mode extends the fingerprint only when it is not the
	// default, mirroring the job-identity hash: default-mode checkpoints
	// keep their historical hashes, while a run under "fast" kernels can
	// only be resumed under "fast" kernels.
	if mode := tensor.CurrentNumericMode(); mode.Name != tensor.DefaultNumericMode {
		_ = gob.NewEncoder(h).Encode(struct{ Numeric string }{mode.Name})
	}
	return h.Sum64()
}

// saveCheckpoint atomically writes the run's state after `round`
// completed rounds.
func (r *Runner) saveCheckpoint(round int, elapsed float64, curve *Curve) error {
	st := r.trainer.(*SchemeTrainer)
	state := st.Trainer.(schemes.Checkpointer).StateParts().Capture()
	cf := checkpointFile{
		Version:   checkpointVersion,
		Scheme:    st.scheme,
		Opts:      st.opts,
		EnvHash:   envFingerprint(st.env),
		EvalEvery: r.evalEvery,
		CkptEvery: r.ckptEvery,
		Round:     round,
		Elapsed:   elapsed,
		Points:    append([]Point(nil), curve.Points...),
		State:     *state,
	}
	if dir := filepath.Dir(r.ckptPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("sim: creating checkpoint directory: %w", err)
		}
	}
	err := atomicfile.Write(r.ckptPath, ".ckpt-*", func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(cf)
	})
	if err != nil {
		return fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads and validates a checkpoint file.
func loadCheckpoint(path string) (*checkpointFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	defer f.Close()
	var cf checkpointFile
	if err := gob.NewDecoder(f).Decode(&cf); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if cf.Version != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", cf.Version, checkpointVersion)
	}
	if cf.Round <= 0 {
		return nil, fmt.Errorf("sim: checkpoint at round %d", cf.Round)
	}
	return &cf, nil
}

// PeekCheckpoint reads a checkpoint's identity — which scheme it trains
// and how many rounds it has completed — without rebuilding a trainer.
// Orchestrators (the sweep engine) use it to decide whether a resume is
// viable before paying for environment construction and training.
func PeekCheckpoint(path string) (scheme string, round int, err error) {
	cf, err := loadCheckpoint(path)
	if err != nil {
		return "", 0, err
	}
	return cf.Scheme, cf.Round, nil
}

// Resume rebuilds a run from a checkpoint written by a Runner with
// checkpointing enabled. env must be constructed identically to the
// original run's environment (same spec and seed) — the checkpoint
// carries the trainer's mutable state, not the world it trains in, and
// Resume rejects an env whose fingerprint (population, data sizes,
// hyperparameters, hardware, bandwidth) differs from the original.
// The scheme and its options always come from the file. The returned
// Runner continues from the checkpointed round and produces results
// bit-identical to an uninterrupted run: same model parameters, same
// curve, same latencies.
//
// Options apply as for NewRunner; WithRounds is the overall total
// (e.g. 100 to finish a 100-round run checkpointed at round 50). The
// original run's evaluation and checkpoint cadences are inherited, and
// the checkpoint path defaults to the file being resumed, so the
// continued run keeps evaluating and checkpointing in place unless
// told otherwise.
func Resume(path string, env *Env, opts ...RunOption) (*Runner, error) {
	cf, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if got := envFingerprint(env); got != cf.EnvHash {
		return nil, fmt.Errorf("sim: environment does not match the checkpointed run (rebuild it from the original spec and seed before resuming)")
	}
	tr, err := New(cf.Scheme, env, cf.Opts)
	if err != nil {
		return nil, fmt.Errorf("sim: rebuilding %q trainer: %w", cf.Scheme, err)
	}
	cp, ok := tr.Trainer.(schemes.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("sim: scheme %q does not support state capture", cf.Scheme)
	}
	if err := cp.StateParts().Restore(&cf.State); err != nil {
		return nil, fmt.Errorf("sim: restoring %q state: %w", cf.Scheme, err)
	}
	r := &Runner{
		trainer:      tr,
		evalEvery:    cf.EvalEvery,
		ckptEvery:    cf.CkptEvery,
		ckptPath:     path,
		startRound:   cf.Round,
		startElapsed: cf.Elapsed,
		priorPoints:  cf.Points,
	}
	for _, o := range opts {
		o(r)
	}
	// A run's final round forces an evaluation even off-cadence. When a
	// resume extends the total past the checkpointed round, that forced
	// point would not exist in an uninterrupted run at the new total —
	// drop it so the stitched curve stays bit-identical.
	if n := len(r.priorPoints); n > 0 && r.rounds > cf.Round && r.evalEvery > 0 {
		if last := r.priorPoints[n-1]; last.Round == cf.Round && last.Round%r.evalEvery != 0 {
			r.priorPoints = r.priorPoints[:n-1]
		}
	}
	r.err = r.validate()
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}
