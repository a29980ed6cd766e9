// Package nn implements a from-scratch neural-network layer framework with
// manual backpropagation.
//
// It exists because the GSFL reproduction needs, in pure Go, the exact
// operations split learning relies on: run the forward pass of a *prefix*
// of a model (the client side), ship the cut-layer activations ("smashed
// data"), resume the forward pass on another machine (the server side),
// and propagate gradients back across the same cut. Every layer therefore
// exposes Forward/Backward explicitly rather than hiding them behind an
// autodiff tape, and reports its parameter and activation sizes so the
// wireless latency model (internal/wireless, internal/simnet) can price
// each transfer in bytes and each pass in FLOPs.
//
// All layers are deterministic given their RNG and inputs, and no two
// models share mutable state, so group replicas can train concurrently.
// (The layers of one Sequential share its GEMM packing scratch, which
// they use one at a time.)
//
// # Buffer ownership
//
// Forward and Backward are destination-passing under the hood: every
// layer owns a lazily-sized workspace (output, input-gradient, and
// per-layer scratch buffers) that is allocated on first use and reused
// while the batch shape is stable, so steady-state training performs no
// heap allocations. The tensors they return therefore alias layer-owned
// memory, with the following contract:
//
//   - The tensor returned by Forward is valid until the layer's next
//     Forward call; the tensor returned by Backward is valid until the
//     layer's next Backward call. Callers that need the values longer
//     must copy (Clone or CopyFrom).
//   - A training-mode Forward and its matching Backward form one unit:
//     no other Forward may run on the same layer between them (an eval
//     pass would overwrite the cached activations Backward reads).
//     Within a Sequential this holds automatically for the usual
//     forward → backward → optimizer step loop.
//   - Inside a Sequential, a ReLU directly followed by a MaxPool2D is
//     one op: the pool scans relu(x) and masks its gradient scatter by
//     its own output, so the ReLU layer is never called and never
//     sizes a buffer. The result is bit for bit the two layers'.
//   - A network whose input is a data batch has nobody to hand
//     dL/d(input) to. Its caller runs Sequential.BackwardParams, which
//     asks the first layer for parameter gradients only; a first-layer
//     Conv2D then never computes — or allocates — its input gradient.
//   - Buffer reuse never changes operation order: each reused buffer is
//     written with exactly the per-element schedule the allocate-fresh
//     implementation used, so results are bit-identical, at any worker
//     count, to the pre-workspace code.
//   - Parameter gradients are written, not accumulated: Backward
//     overwrites Grads with this batch's gradient, so no step zeroes them
//     first. Each element is the value adding onto a zeroed tensor gave —
//     a sum that starts at +0 is never −0, and +0 + s = s for every other
//     s.
package nn

import (
	"fmt"

	"gsfl/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// The contract mirrors classic layer-wise backprop:
//
//   - Forward consumes the previous activation and returns the next. When
//     train is true the layer may cache whatever it needs for Backward and
//     may behave stochastically (Dropout) or update running statistics
//     (BatchNorm).
//   - Backward consumes dL/d(output) and returns dL/d(input), writing
//     dL/d(param) into Grads: every element of every Grads tensor is
//     overwritten with this batch's gradient, so a training step needs
//     no zeroing first. It must be called after a training-mode Forward
//     with the matching batch.
//
// Params and Grads return aligned slices: Grads()[i] is the gradient of
// Params()[i]. Layers without parameters return nil for both.
type Layer interface {
	// Name identifies the layer type and salient hyperparameters,
	// e.g. "dense(128->43)". Used in model summaries and traces.
	Name() string
	// Forward computes the layer output for a batch.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes the input gradient from the output gradient and
	// writes the parameter gradients.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameter tensors (may be nil).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params (may be nil).
	Grads() []*tensor.Tensor
	// OutShape maps a per-sample input shape (no batch dimension) to the
	// per-sample output shape. It panics on incompatible shapes so that
	// model mis-assembly fails fast at construction time.
	OutShape(in []int) []int
	// FwdFLOPs estimates the floating-point operations of one sample's
	// forward pass given the per-sample input shape. The backward pass is
	// priced at 2x forward, the standard estimate used by training-cost
	// models.
	FwdFLOPs(in []int) int64
}

// ZeroGrads zeroes every gradient tensor of every layer in ls. Backward
// writes every gradient, so no training step calls it; it stays because
// the benchmark's per-layer probe (internal/bench) still times it with
// each layer's step.
func ZeroGrads(ls []Layer) {
	for _, l := range ls {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// ParamCount returns the total number of scalar parameters in ls.
func ParamCount(ls []Layer) int {
	n := 0
	for _, l := range ls {
		for _, p := range l.Params() {
			n += p.Size()
		}
	}
	return n
}

// prod multiplies shape dimensions (the per-sample element count).
func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustRank takes the layer rather than its name so the Name() fmt call
// — an allocation — only happens on the panic path, not on every
// Forward.
func mustRank(l Layer, x *tensor.Tensor, rank int) {
	if x.Dims() != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", l.Name(), rank, x.Shape()))
	}
}
