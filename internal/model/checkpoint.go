package model

import (
	"fmt"

	"gsfl/internal/nn"
	"gsfl/internal/tensor"
)

// TensorState is the gob-serializable form of one tensor.
type TensorState struct {
	Shape []int
	Data  []float64
}

// SnapshotState is the gob-serializable form of a model-half Snapshot;
// trainer checkpoints embed these for every model they carry.
type SnapshotState struct {
	Tensors []TensorState
}

// State converts the snapshot into its serializable form (deep copy).
func (sn Snapshot) State() SnapshotState {
	return SnapshotState{Tensors: toCheckpoint(sn)}
}

// StateOf captures a Sequential's parameters directly into serializable
// form. It copies each tensor exactly once, where the older
// TakeSnapshot(s).State() pattern copied twice; the trainer-state codec
// uses it for model halves that are trained in place.
func StateOf(s *nn.Sequential) SnapshotState {
	ps := s.Params()
	out := make([]TensorState, len(ps))
	for i, p := range ps {
		out[i] = TensorState{Shape: p.Shape(), Data: append([]float64(nil), p.Data...)}
	}
	return SnapshotState{Tensors: out}
}

// SnapshotFromState validates a serialized snapshot and rebuilds it.
func SnapshotFromState(st SnapshotState) (Snapshot, error) {
	return fromCheckpoint(st.Tensors)
}

func toCheckpoint(s Snapshot) []TensorState {
	out := make([]TensorState, len(s.Tensors))
	for i, t := range s.Tensors {
		out[i] = TensorState{Shape: t.Shape(), Data: append([]float64(nil), t.Data...)}
	}
	return out
}

func fromCheckpoint(cs []TensorState) (Snapshot, error) {
	ts := make([]*tensor.Tensor, len(cs))
	for i, c := range cs {
		n := 1
		for _, d := range c.Shape {
			if d < 0 {
				return Snapshot{}, fmt.Errorf("model: checkpoint tensor %d has negative dimension", i)
			}
			n *= d
		}
		if n != len(c.Data) {
			return Snapshot{}, fmt.Errorf("model: checkpoint tensor %d shape %v does not match %d values", i, c.Shape, len(c.Data))
		}
		ts[i] = tensor.FromSlice(append([]float64(nil), c.Data...), c.Shape...)
	}
	return Snapshot{Tensors: ts}, nil
}
