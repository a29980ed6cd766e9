// Package agg implements model aggregation for the federation step of
// GSFL and the FL baseline.
//
// The paper's Step 3 aggregates the M group-level server-side models and
// the M client-side models with FedAVG; this package provides that
// weighted average over model.Snapshot values.
package agg

import (
	"fmt"

	"gsfl/internal/model"
	"gsfl/internal/tensor"
)

// FedAvgInto computes the weighted average of structurally identical
// snapshots into dst, reusing dst's tensors (they are allocated on first
// use, when dst is the zero Snapshot). dst must not alias any of the
// input snapshots. weights are typically per-group sample counts; they
// are normalized internally, so any positive scale works. Passing nil
// weights averages uniformly. Accumulation visits snapshots in slice
// order, so reusing dst round after round is bit-identical to a fresh
// destination.
func FedAvgInto(dst *model.Snapshot, snaps []model.Snapshot, weights []float64) {
	if len(snaps) == 0 {
		panic("agg: FedAvgInto of zero snapshots")
	}
	if weights == nil {
		weights = make([]float64, len(snaps))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(snaps) {
		panic(fmt.Sprintf("agg: %d snapshots vs %d weights", len(snaps), len(weights)))
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("agg: negative weight %v at %d", w, i))
		}
		total += w
	}
	if total == 0 {
		panic("agg: all weights zero")
	}

	ref := snaps[0]
	if dst.Tensors == nil {
		dst.Tensors = make([]*tensor.Tensor, len(ref.Tensors))
		for ti, t := range ref.Tensors {
			dst.Tensors[ti] = tensor.New(t.Shape()...)
		}
	} else {
		if len(dst.Tensors) != len(ref.Tensors) {
			panic(fmt.Sprintf("agg: destination has %d tensors, want %d", len(dst.Tensors), len(ref.Tensors)))
		}
		for ti, t := range dst.Tensors {
			if t.Size() != ref.Tensors[ti].Size() {
				panic(fmt.Sprintf("agg: destination tensor %d size mismatch", ti))
			}
			t.Zero()
		}
	}
	for si, sn := range snaps {
		if len(sn.Tensors) != len(ref.Tensors) {
			panic(fmt.Sprintf("agg: snapshot %d has %d tensors, want %d", si, len(sn.Tensors), len(ref.Tensors)))
		}
		w := weights[si] / total
		if w == 0 {
			continue
		}
		for ti, t := range sn.Tensors {
			if t.Size() != ref.Tensors[ti].Size() {
				panic(fmt.Sprintf("agg: snapshot %d tensor %d size mismatch", si, ti))
			}
			dst.Tensors[ti].AddScaled(w, t)
		}
	}
}
