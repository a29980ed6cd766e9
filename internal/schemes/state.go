package schemes

import (
	"fmt"

	"gsfl/internal/bincodec"
	"gsfl/internal/data"
	"gsfl/internal/model"
	"gsfl/internal/nn"
	"gsfl/internal/optim"
	"gsfl/internal/wireless"
)

// TrainerState is a trainer's complete mutable state at a round
// boundary: what DecodeState reads out of a checkpoint and Restore
// validates before it touches a trainer. Each scheme
// defines its own ordering for the Models/Opts/Loaders slices; a state
// encoded from one scheme restores only into a freshly constructed
// trainer of the same scheme over an identical Env.
//
// Combined with the deterministic construction path (everything a
// trainer derives at New time is a pure function of the Env), restoring
// a TrainerState makes continued training bit-identical to the
// uninterrupted run: model parameters, optimizer momentum and step
// counts, data-loader shuffle positions, and the wireless channel's
// per-round RNG cursor are all part of the state.
type TrainerState struct {
	// Round is the number of completed training rounds.
	Round int
	// Channel is the shared wireless channel's state (round cursor,
	// client positions, shadowing).
	Channel wireless.ChannelState
	// Models holds the scheme's persistent model halves. The decoder
	// built the tensors and nothing else refers to them, so Restore may
	// keep one as the trainer's own.
	Models []model.Snapshot
	// Opts holds the scheme's optimizer states.
	Opts []optim.SGDState
	// Loaders holds the per-client data-loader states.
	Loaders []data.LoaderState
}

// Checkpointer is the optional interface a Trainer implements to support
// checkpoint/resume through the run API. All five built-in schemes
// implement it.
type Checkpointer interface {
	// StateParts lists the trainer's mutable parts; the caller encodes or
	// restores them with the one codec below. The parts point at the
	// live trainer, so one listing serves every later round boundary. The
	// trainer must sit at a round boundary, and a restore target must be
	// freshly constructed over an Env identical to the one the state was
	// encoded from.
	StateParts() StateParts
}

// ModelPart is one persistent model half in a trainer's state.
type ModelPart struct {
	// Net is the live model the half trains in place (sl, cl) or, with
	// Snap set, the structural reference a restored snapshot must fit
	// (the trainer's eval model).
	Net *nn.Sequential
	// Snap, when non-nil, is the aggregated snapshot that is the state
	// (replicas are rewritten from it every round, so they are derived).
	Snap *model.Snapshot
}

// StateParts lists a trainer's mutable parts, each slice in the order
// the scheme's TrainerState stores it. AppendState, DecodeState and
// Restore are the one trainer-state codec every scheme shares.
type StateParts struct {
	// Scheme names the trainer in errors.
	Scheme string
	// Round is the completed-round counter (trace labels, and the key of
	// the dropout and population-sampling streams).
	Round   *int
	Channel *wireless.Channel
	Models  []ModelPart
	Opts    []*optim.SGD
	Loaders []*data.Loader
	// ReplayedLoaders marks loaders that carry no cross-round state: a
	// population Resets them every round from sampled bindings it replays
	// deterministically on resume. Zero-value states keep the checkpoint
	// shape fixed, and Restore leaves the loaders alone.
	ReplayedLoaders bool
}

// AppendState encodes the parts in internal/bincodec's vocabulary,
// straight from the live tensors, snapshots and momentum buffers — the
// encoder runs on the training goroutine at a round boundary, so there
// is nothing to copy first and nothing is allocated beyond the
// encoder's own (reused) buffer.
//
//	state   := u64 round | channel | u32 count | count × tensors (models)
//	           | u32 count | count × optstate | u32 count | count × loader
//	channel := u64 round | u32 n | n × f64 (DistM) | u32 n | n × f64 (ShadowDB)
//	loader  := u64 epoch | u64 pos
func (p StateParts) AppendState(e *bincodec.Enc) {
	e.U64(uint64(*p.Round))
	ch := p.Channel.State()
	e.U64(uint64(ch.Round))
	e.U32(uint32(len(ch.DistM)))
	e.F64s(ch.DistM)
	e.U32(uint32(len(ch.ShadowDB)))
	e.F64s(ch.ShadowDB)
	e.U32(uint32(len(p.Models)))
	for _, m := range p.Models {
		if m.Snap != nil {
			e.Tensors(m.Snap.Tensors)
		} else {
			e.Tensors(m.Net.Params())
		}
	}
	e.U32(uint32(len(p.Opts)))
	for _, o := range p.Opts {
		// optstate, spelled from the live buffers.
		e.U64(uint64(o.Steps()))
		e.Tensors(o.Velocity())
	}
	e.U32(uint32(len(p.Loaders)))
	for _, l := range p.Loaders {
		var st data.LoaderState
		if !p.ReplayedLoaders {
			st = l.State()
		}
		e.U64(uint64(st.Epoch))
		e.U64(uint64(st.Pos))
	}
}

// DecodeState reads a state AppendState wrote. Every count is checked
// against the bytes that remain, and the lists grow only as entries are
// actually read, so hostile input cannot make it allocate more than a
// small multiple of its own length; what the values mean for a
// particular trainer is Restore's to judge. The decoder's sticky error
// reports a failure.
func DecodeState(d *bincodec.Dec) *TrainerState {
	st := &TrainerState{Round: int(int64(d.U64()))}
	st.Channel.Round = int64(d.U64())
	st.Channel.DistM = d.F64s(int(d.U32()))
	st.Channel.ShadowDB = d.F64s(int(d.U32()))
	// The smallest encodings: an empty tensor list is 2 bytes, an
	// optimizer without momentum 10, a loader 16.
	for n := count(d, "model", 2); len(st.Models) < n && d.Err() == nil; {
		st.Models = append(st.Models, model.Snapshot{Tensors: d.TensorListInto(nil)})
	}
	for n := count(d, "optimizer", 10); len(st.Opts) < n && d.Err() == nil; {
		st.Opts = append(st.Opts, d.OptState())
	}
	for n := count(d, "loader", 16); len(st.Loaders) < n && d.Err() == nil; {
		st.Loaders = append(st.Loaders, data.LoaderState{Epoch: int(int64(d.U64())), Pos: int(int64(d.U64()))})
	}
	return st
}

// count reads a list length and fails the decoder when the remaining
// bytes could not hold that many entries of at least minBytes each.
func count(d *bincodec.Dec, what string, minBytes int) int {
	n := int(d.U32())
	if d.Err() != nil {
		return 0
	}
	if n > d.Remaining()/minBytes {
		d.Fail("state claims %d %ss in %d bytes", n, what, d.Remaining())
		return 0
	}
	return n
}

// Restore resets the parts of a freshly constructed trainer to a
// decoded state, which it consumes: a snapshot part takes the state's
// tensors as its own. The slice arities and every model snapshot are
// validated against the trainer before anything is mutated, so a state
// from the wrong scheme, architecture or client count never leaves a
// model half-updated; every error names the scheme, the part and its
// index.
func (p StateParts) Restore(st *TrainerState) error {
	if err := st.CheckCounts(p.Scheme, len(p.Models), len(p.Opts), len(p.Loaders)); err != nil {
		return err
	}
	for i, m := range p.Models {
		snap, ps := st.Models[i], m.Net.Params()
		if len(ps) != len(snap.Tensors) {
			return fmt.Errorf("schemes: %s model %d has %d tensors, model half has %d params",
				p.Scheme, i, len(snap.Tensors), len(ps))
		}
		for j, param := range ps {
			if param.Size() != snap.Tensors[j].Size() {
				return fmt.Errorf("schemes: %s model %d tensor %d has %d values, param has %d",
					p.Scheme, i, j, snap.Tensors[j].Size(), param.Size())
			}
		}
	}
	for i, m := range p.Models {
		if m.Snap != nil {
			*m.Snap = st.Models[i]
		} else {
			st.Models[i].Restore(m.Net)
		}
	}
	for i, o := range p.Opts {
		if err := o.Restore(st.Opts[i]); err != nil {
			return fmt.Errorf("schemes: %s optimizer %d: %w", p.Scheme, i, err)
		}
	}
	if !p.ReplayedLoaders {
		for i, l := range p.Loaders {
			if err := l.Restore(st.Loaders[i]); err != nil {
				return fmt.Errorf("schemes: %s loader %d: %w", p.Scheme, i, err)
			}
		}
	}
	if err := p.Channel.Restore(st.Channel); err != nil {
		return fmt.Errorf("schemes: %s channel: %w", p.Scheme, err)
	}
	*p.Round = st.Round
	return nil
}

// CheckCounts validates the slice arities of a TrainerState against what
// the restoring scheme expects — the first line of defence against
// restoring a checkpoint into the wrong scheme or population size.
func (st *TrainerState) CheckCounts(scheme string, models, opts, loaders int) error {
	if len(st.Models) != models || len(st.Opts) != opts || len(st.Loaders) != loaders {
		return fmt.Errorf("schemes: %s state has %d models/%d opts/%d loaders, trainer needs %d/%d/%d",
			scheme, len(st.Models), len(st.Opts), len(st.Loaders), models, opts, loaders)
	}
	if st.Round < 0 {
		return fmt.Errorf("schemes: %s state has negative round %d", scheme, st.Round)
	}
	return nil
}
