package nn

import (
	"fmt"

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
// Every ReLU directly followed by a MaxPool2D runs as one op with it:
// the pool scans relu(x) and routes gradients only through positive
// outputs (MaxPool2D.forward with relu set, backwardReLU), so neither
// of the ReLU's full passes nor its two buffers exists, and no bit
// differs from running the two layers. The paired ReLU is never
// called. Only pairs inside one Sequential fuse: a split model cut
// between the two runs each on its own side.
//
// The layers whose products pack a small operand (Conv2D, Dense) share
// one tensor.Panels: a Sequential runs its layers one at a time, so the
// packing buffer need only be as large as its largest product, not the
// sum of all of them.
//
// The flattened Params/Grads/DecayMask views, the pairs and the shared
// panels are set up once, at first use (the views are consulted on
// every optimizer step, so rebuilding them would put slice allocations
// in the training hot path). The Layers slice must therefore not be
// mutated after the Sequential is first used, and callers must treat
// the returned slices as read-only.
type Sequential struct {
	Layers []Layer

	cacheBuilt bool
	params     []*tensor.Tensor
	grads      []*tensor.Tensor
	decay      []bool
	// reluPool[i] is Layers[i+1] when Layers[i] is a ReLU fused into
	// that pool, and nil otherwise.
	reluPool []*MaxPool2D
}

// panelSharer is implemented by the layers whose products pack into a
// tensor.Panels.
type panelSharer interface{ sharePanels(*tensor.Panels) }

// buildCache assembles the flattened parameter views, finds the fused
// pairs and hands the layers their shared panels, once.
func (s *Sequential) buildCache() {
	s.params = nil
	s.grads = nil
	s.decay = nil
	var panels *tensor.Panels
	for _, l := range s.Layers {
		if ps, ok := l.(panelSharer); ok {
			if panels == nil {
				panels = new(tensor.Panels)
			}
			ps.sharePanels(panels)
		}
	}
	s.reluPool = make([]*MaxPool2D, len(s.Layers))
	for i := 0; i+1 < len(s.Layers); i++ {
		_, relu := s.Layers[i].(*ReLU)
		if pool, ok := s.Layers[i+1].(*MaxPool2D); relu && ok {
			s.reluPool[i] = pool
			i++
		}
	}
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

// ensureCache builds the cached views and pairs on first use.
func (s *Sequential) ensureCache() {
	if !s.cacheBuilt {
		s.buildCache()
	}
}

// Forward runs the full forward pass.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.ensureCache()
	for i := 0; i < len(s.Layers); i++ {
		if pool := s.reluPool[i]; pool != nil {
			x = pool.forward(x, train, true)
			i++
			continue
		}
		x = s.Layers[i].Forward(x, train)
	}
	return x
}

// Backward runs the full backward pass, returning the gradient with
// respect to the network input (the "smashed-data gradient" when this
// Sequential is a server-side model half). Callers that would discard
// that gradient — anything whose input is data, not another network's
// activations — should call BackwardParams instead.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s.ensureCache()
	return s.backwardDownTo(dy, 0)
}

// backwardDownTo runs Backward through layers [lo, len(Layers)), top
// down; no fused pair may straddle lo.
func (s *Sequential) backwardDownTo(dy *tensor.Tensor, lo int) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= lo; i-- {
		if i > lo && s.reluPool[i-1] != nil {
			dy = s.reluPool[i-1].backwardReLU(dy)
			i--
			continue
		}
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// paramsBackwarder is implemented by layers (Conv2D, Dense) that can
// write their parameter gradients without computing dL/d(input).
type paramsBackwarder interface {
	BackwardParams(dy *tensor.Tensor)
}

// BackwardParams is Backward for callers that discard the input
// gradient: a client-side model half or a whole local model, whose
// input is a data batch. Every parameter gradient is written exactly
// as Backward writes it — the layers above the first run their
// ordinary Backward — but the first layer is asked for its
// parameter gradients only, so the network-input gradient (for a
// Conv2D: its input-gradient product and the buffer it fills) is never
// computed.
func (s *Sequential) BackwardParams(dy *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	s.ensureCache()
	if s.reluPool[0] != nil {
		// The first op is a fused pair: it has no parameters.
		s.backwardDownTo(dy, 0)
		return
	}
	dy = s.backwardDownTo(dy, 1)
	if first, ok := s.Layers[0].(paramsBackwarder); ok {
		first.BackwardParams(dy)
	} else {
		s.Layers[0].Backward(dy)
	}
}

// Params returns all parameter tensors in layer order. The slice is
// cached and shared — treat it as read-only.
func (s *Sequential) Params() []*tensor.Tensor {
	s.ensureCache()
	return s.params
}

// Grads returns all gradient tensors aligned with Params. The slice is
// cached and shared — treat it as read-only.
func (s *Sequential) Grads() []*tensor.Tensor {
	s.ensureCache()
	return s.grads
}

// DecayMask returns, aligned with Params, whether each parameter should
// receive L2 weight decay (true = decay). The slice is cached and
// shared — treat it as read-only.
func (s *Sequential) DecayMask() []bool {
	s.ensureCache()
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
