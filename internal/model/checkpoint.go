package model

import (
	"fmt"

	"gsfl/internal/tensor"
)

// TensorState is one tensor as plain data: what a decoded checkpoint
// holds before it is validated into a Tensor.
type TensorState struct {
	Shape []int
	Data  []float64
}

// SnapshotState is a model-half Snapshot as plain data; decoded trainer
// checkpoints carry one for every model.
type SnapshotState struct {
	Tensors []TensorState
}

// SnapshotFromState validates a decoded snapshot and rebuilds it (deep
// copy).
func SnapshotFromState(st SnapshotState) (Snapshot, error) {
	ts := make([]*tensor.Tensor, len(st.Tensors))
	for i, c := range st.Tensors {
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
