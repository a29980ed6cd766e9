package agg_test

import (
	"fmt"

	"gsfl/internal/agg"
	"gsfl/internal/model"
	"gsfl/internal/tensor"
)

// ExampleFedAvgInto shows the weighted average the AP computes in GSFL's
// Step 3: two group models merged with weights proportional to how much
// data each group saw.
func ExampleFedAvgInto() {
	groupA := model.Snapshot{Tensors: []*tensor.Tensor{tensor.FromSlice([]float64{1, 1}, 2)}}
	groupB := model.Snapshot{Tensors: []*tensor.Tensor{tensor.FromSlice([]float64{4, 0}, 2)}}

	// Group A trained on 300 samples, group B on 100.
	var global model.Snapshot
	agg.FedAvgInto(&global, []model.Snapshot{groupA, groupB}, []float64{300, 100})
	fmt.Println(global.Tensors[0].Data)
	// Output: [1.75 0.75]
}
