package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"

	"gsfl/internal/atomicfile"
	"gsfl/internal/bincodec"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
	"gsfl/internal/wireless"
)

// A checkpoint is one flat binary message in internal/bincodec's
// vocabulary — the one the TCP wire speaks — so the trainer state has a
// single hardened decoder wherever it travels:
//
//	file   := u32 magic | u16 version | str scheme | opts | u64 envHash
//	          | u32 evalEvery | u32 ckptEvery | u64 round | f64 elapsed
//	          | points | state
//	opts   := u64 groups | str strategy | u8 pipelined | f64 dropoutProb
//	points := u32 count | count × (u64 round | f64 latency | f64 loss | f64 accuracy)
//
// with state as schemes.StateParts.AppendState lays it out. The scheme
// and the grouping strategy travel as the names they are registered
// under, so a file means the same run in every process that can read
// it. Version 3 is the only format written or read. Version 2 stored
// the strategy as an integer minted by registration order and version 1
// was a gob stream; a checkpoint is transient by contract (it exists
// while its run is in flight), so neither has a reader: Resume refuses
// the file, an orchestrator drops it and reruns from round 0, and the
// determinism contract makes that run's bytes the same.
const (
	checkpointMagic   = 0x4B435347 // "GSCK"
	checkpointVersion = 3
	// maxNameLen bounds the scheme and strategy names a checkpoint may
	// claim.
	maxNameLen = 256
)

// checkpointFile is a decoded checkpoint: which scheme (and options) to
// rebuild, how far the run had progressed, the curve so far, and the
// trainer's complete mutable state.
type checkpointFile struct {
	Scheme string
	Opts   schemes.FactoryOpts
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
	State   *schemes.TrainerState
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

// saveCheckpoint encodes the run's state after `round` completed rounds
// and, when the Runner has a path, atomically replaces that file with
// it. The returned bytes are the Runner's buffer, valid until the next
// save.
func (r *Runner) saveCheckpoint(round int, elapsed float64, curve *Curve) ([]byte, error) {
	buf := r.encodeCheckpoint(round, elapsed, curve)
	if r.ckptPath != "" {
		if err := atomicfile.Write(r.ckptPath, ".ckpt-*", buf); err != nil {
			return nil, fmt.Errorf("sim: writing checkpoint: %w", err)
		}
	}
	return buf, nil
}

// encodeCheckpoint writes the checkpoint into the Runner's reused
// buffer, straight from the live trainer.
func (r *Runner) encodeCheckpoint(round int, elapsed float64, curve *Curve) []byte {
	st := r.trainer.(*SchemeTrainer)
	e := &r.ckptEnc
	e.Buf = e.Buf[:0]
	e.U32(checkpointMagic)
	e.U16(checkpointVersion)
	e.Str(st.scheme)
	e.U64(uint64(st.opts.Groups))
	e.Str(st.opts.Strategy)
	var pipelined byte
	if st.opts.Pipelined {
		pipelined = 1
	}
	e.U8(pipelined)
	e.F64(st.opts.DropoutProb)
	e.U64(r.envHash)
	e.U32(uint32(r.evalEvery))
	e.U32(uint32(r.ckptEvery))
	e.U64(uint64(round))
	e.F64(elapsed)
	e.U32(uint32(len(curve.Points)))
	for _, p := range curve.Points {
		e.U64(uint64(p.Round))
		e.F64(p.LatencySeconds)
		e.F64(p.Loss)
		e.F64(p.Accuracy)
	}
	r.ckptParts.AppendState(e)
	return e.Buf
}

// gobTypeName is how a version 1 file announces itself: gob opens a
// stream with the type definition of the value it carries.
var gobTypeName = []byte("checkpointFile")

// decodeCheckpoint reads and validates a checkpoint's bytes.
func decodeCheckpoint(data []byte) (*checkpointFile, error) {
	d := bincodec.NewDec("sim", data)
	magic, version := d.U32(), d.U16()
	switch {
	case d.Err() == nil && magic == checkpointMagic && version == checkpointVersion:
	case d.Err() == nil && magic == checkpointMagic:
		return nil, fmt.Errorf("sim: checkpoint format v%d is not readable by this version, which reads v%d", version, checkpointVersion)
	case bytes.Contains(data[:min(len(data), 64)], gobTypeName):
		return nil, fmt.Errorf("sim: checkpoint format v1 is not readable by this version (rerun from round 0)")
	case d.Err() != nil:
		return nil, fmt.Errorf("sim: not a checkpoint: %d bytes hold no header", len(data))
	default:
		return nil, fmt.Errorf("sim: not a checkpoint: magic %#08x, want %#08x", magic, uint32(checkpointMagic))
	}
	cf := &checkpointFile{Scheme: d.Str(maxNameLen)}
	cf.Opts.Groups = int(int64(d.U64()))
	cf.Opts.Strategy = d.Str(maxNameLen)
	switch b := d.U8(); b {
	case 0, 1:
		cf.Opts.Pipelined = b == 1
	default:
		d.Fail("checkpoint pipelined flag %d", b)
	}
	cf.Opts.DropoutProb = d.F64()
	cf.EnvHash = d.U64()
	cf.EvalEvery = int(d.U32())
	cf.CkptEvery = int(d.U32())
	cf.Round = int(int64(d.U64()))
	cf.Elapsed = d.F64()
	n := int(d.U32())
	if d.Err() == nil && n > d.Remaining()/32 {
		d.Fail("checkpoint claims %d curve points in %d bytes", n, d.Remaining())
	}
	for len(cf.Points) < n && d.Err() == nil {
		cf.Points = append(cf.Points, Point{
			Round: int(int64(d.U64())), LatencySeconds: d.F64(), Loss: d.F64(), Accuracy: d.F64(),
		})
	}
	cf.State = schemes.DecodeState(&d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if cf.Round <= 0 {
		return nil, fmt.Errorf("sim: checkpoint at round %d", cf.Round)
	}
	return cf, nil
}

// loadCheckpoint reads and validates a checkpoint file.
func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
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
	envHash := envFingerprint(env)
	if envHash != cf.EnvHash {
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
	if err := cp.StateParts().Restore(cf.State); err != nil {
		return nil, fmt.Errorf("sim: restoring %q state: %w", cf.Scheme, err)
	}
	r := &Runner{
		trainer:      tr,
		evalEvery:    cf.EvalEvery,
		ckptEvery:    cf.CkptEvery,
		ckptPath:     path,
		envHash:      envHash,
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
