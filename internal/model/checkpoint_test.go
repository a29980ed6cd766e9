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
	var st SnapshotState
	for _, ts := range sn.Tensors {
		st.Tensors = append(st.Tensors, TensorState{Shape: ts.Shape(), Data: append([]float64(nil), ts.Data...)})
	}
	back, err := SnapshotFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.L2Distance(sn) != 0 {
		t.Fatal("state round trip changed values")
	}
	for i, ts := range back.Tensors {
		if !ts.SameShape(sn.Tensors[i]) {
			t.Fatalf("tensor %d came back with shape %v, want %v", i, ts.Shape(), sn.Tensors[i].Shape())
		}
	}
	// The snapshot is a deep copy: mutating the state must not touch it.
	st.Tensors[0].Data[0] = 99
	if back.Tensors[0].Data[0] == 99 {
		t.Fatal("SnapshotFromState must deep-copy tensor data")
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
