package nn

import (
	"fmt"
	"strings"

	"gsfl/internal/tensor"
)

// NoDecay is an optional interface a Layer can implement to exempt some
// or all of its parameters from L2 weight decay. The returned slice is
// aligned with Params(); true means "do not decay". BatchNorm uses this
// to protect its affine parameters and running statistics, which standard
// practice never decays.
type NoDecay interface {
	NoDecayParams() []bool
}

// NoDecayParams implements NoDecay for BatchNorm: nothing is decayed.
func (b *BatchNorm) NoDecayParams() []bool { return []bool{true, true, true, true} }

// Sequential chains layers into a network. It is the unit both the whole
// model and each side of a split model are built from.
//
// The flattened Params/Grads/DecayMask views are cached after first use
// (they are consulted on every optimizer step, so rebuilding them would
// put slice allocations in the training hot path). The Layers slice must
// therefore not be mutated after the Sequential is first used, and
// callers must treat the returned slices as read-only.
type Sequential struct {
	Layers []Layer

	cacheBuilt bool
	params     []*tensor.Tensor
	grads      []*tensor.Tensor
	decay      []bool
}

// buildCache assembles the flattened parameter views once.
func (s *Sequential) buildCache() {
	s.params = nil
	s.grads = nil
	s.decay = nil
	for _, l := range s.Layers {
		ps := l.Params()
		s.params = append(s.params, ps...)
		s.grads = append(s.grads, l.Grads()...)
		if nd, ok := l.(NoDecay); ok {
			skip := nd.NoDecayParams()
			if len(skip) != len(ps) {
				panic(fmt.Sprintf("nn: %s NoDecayParams length %d, want %d", l.Name(), len(skip), len(ps)))
			}
			for _, sk := range skip {
				s.decay = append(s.decay, !sk)
			}
			continue
		}
		for range ps {
			s.decay = append(s.decay, true)
		}
	}
	s.cacheBuilt = true
}

// NewSequential constructs a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the full forward pass.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the full backward pass, returning the gradient with
// respect to the network input (the "smashed-data gradient" when this
// Sequential is a server-side model half). Callers that would discard
// that gradient — anything whose input is data, not another network's
// activations — should call BackwardParams instead.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// paramsBackwarder is implemented by layers (Conv2D, Dense) that can
// accumulate their parameter gradients without computing dL/d(input).
type paramsBackwarder interface {
	BackwardParams(dy *tensor.Tensor)
}

// BackwardParams is Backward for callers that discard the input
// gradient: a client-side model half or a whole local model, whose
// input is a data batch. Every parameter gradient is accumulated
// exactly as Backward accumulates it — the layers above the first run
// their ordinary Backward — but the first layer is asked for its
// parameter gradients only, so the network-input gradient (for a
// Conv2D: its input-gradient product and the buffer it fills) is never
// computed.
func (s *Sequential) BackwardParams(dy *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i > 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if first, ok := s.Layers[0].(paramsBackwarder); ok {
		first.BackwardParams(dy)
	} else {
		s.Layers[0].Backward(dy)
	}
}

// ZeroGrads zeroes all parameter gradients. It walks the cached gradient
// views, so per-step calls allocate nothing (layer Grads() builds a
// fresh slice per call).
func (s *Sequential) ZeroGrads() {
	for _, g := range s.Grads() {
		g.Zero()
	}
}

// Params returns all parameter tensors in layer order. The slice is
// cached and shared — treat it as read-only.
func (s *Sequential) Params() []*tensor.Tensor {
	if !s.cacheBuilt {
		s.buildCache()
	}
	return s.params
}

// Grads returns all gradient tensors aligned with Params. The slice is
// cached and shared — treat it as read-only.
func (s *Sequential) Grads() []*tensor.Tensor {
	if !s.cacheBuilt {
		s.buildCache()
	}
	return s.grads
}

// DecayMask returns, aligned with Params, whether each parameter should
// receive L2 weight decay (true = decay). The slice is cached and
// shared — treat it as read-only.
func (s *Sequential) DecayMask() []bool {
	if !s.cacheBuilt {
		s.buildCache()
	}
	return s.decay
}

// ParamCount returns the total number of scalar parameters.
func (s *Sequential) ParamCount() int { return ParamCount(s.Layers) }

// OutShape propagates a per-sample input shape through every layer,
// returning the final per-sample output shape. It panics on any
// incompatibility, which makes model construction self-checking.
func (s *Sequential) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// ShapeAt returns the per-sample activation shape after layer k (k layers
// applied), so ShapeAt(in, 0) == in and ShapeAt(in, len(Layers)) is the
// output shape. This is the quantity the split-learning latency model
// prices as "smashed data".
func (s *Sequential) ShapeAt(in []int, k int) []int {
	if k < 0 || k > len(s.Layers) {
		panic(fmt.Sprintf("nn: ShapeAt index %d outside [0,%d]", k, len(s.Layers)))
	}
	out := append([]int(nil), in...)
	for _, l := range s.Layers[:k] {
		out = l.OutShape(out)
	}
	return out
}

// FwdFLOPs sums per-sample forward FLOPs over all layers for the given
// per-sample input shape.
func (s *Sequential) FwdFLOPs(in []int) int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.FwdFLOPs(in)
		in = l.OutShape(in)
	}
	return total
}

// Summary renders a layer-by-layer description with activation shapes and
// parameter counts, similar to Keras's model.summary().
func (s *Sequential) Summary(in []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %-16s %10s\n", "layer", "output", "params")
	shape := append([]int(nil), in...)
	total := 0
	for _, l := range s.Layers {
		shape = l.OutShape(shape)
		n := 0
		for _, p := range l.Params() {
			n += p.Size()
		}
		total += n
		fmt.Fprintf(&sb, "%-28s %-16v %10d\n", l.Name(), shape, n)
	}
	fmt.Fprintf(&sb, "total params: %d\n", total)
	return sb.String()
}
