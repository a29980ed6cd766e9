package model

import (
	"testing"

	"gsfl/internal/tensor"
)

func TestSnapshotStateRoundTrip(t *testing.T) {
	sn := Snapshot{Tensors: []*tensor.Tensor{
		tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3),
		tensor.FromSlice([]float64{7, 8}, 2),
	}}
	back, err := SnapshotFromState(sn.State())
	if err != nil {
		t.Fatal(err)
	}
	if back.L2Distance(sn) != 0 {
		t.Fatal("state round trip changed values")
	}
	// The state is a deep copy: mutating it must not touch the source.
	st := sn.State()
	st.Tensors[0].Data[0] = 99
	if sn.Tensors[0].Data[0] == 99 {
		t.Fatal("State must deep-copy tensor data")
	}
}

func TestSnapshotFromStateValidation(t *testing.T) {
	if _, err := SnapshotFromState(SnapshotState{Tensors: []TensorState{
		{Shape: []int{2, 2}, Data: []float64{1}},
	}}); err == nil {
		t.Fatal("shape/data mismatch must error")
	}
	if _, err := SnapshotFromState(SnapshotState{Tensors: []TensorState{
		{Shape: []int{-1}, Data: []float64{}},
	}}); err == nil {
		t.Fatal("negative dimension must error")
	}
}
