// Package model implements the split-aware model container GSFL trains.
//
// A SplitModel is a layer stack cut at an index k: layers [0,k) form the
// client-side model, layers [k,len) the server-side model. The package
// also prices everything the wireless latency model needs: parameter
// bytes (what model distribution/sharing/aggregation transfers), smashed
// data bytes (what each forward step uploads), gradient bytes (what each
// backward step downloads), and FLOPs for each side.
package model

import (
	"fmt"
	"math/rand"

	"gsfl/internal/nn"
	"gsfl/internal/tensor"
)

// WireBytesPerScalar is the on-the-wire size of one model parameter or
// activation element. Models are trained in float64 but serialized as
// float32 for transfer, matching common federated-learning practice and
// the data volumes the paper's latency model implies.
const WireBytesPerScalar = 4

// Arch describes a network architecture: the per-sample input shape,
// the number of classes, and a builder that produces a fresh layer stack.
// Builders take an RNG so every initialization is reproducible.
type Arch struct {
	Name    string
	InShape []int
	Classes int
	Build   func(rng *rand.Rand) []nn.Layer
}

// NewSplit builds the architecture and cuts it at layer index cut:
// client = layers[:cut], server = layers[cut:]. It validates that the
// stack is assemblable (shape propagation panics otherwise).
func (a Arch) NewSplit(rng *rand.Rand, cut int) *SplitModel {
	layers := a.Build(rng)
	if cut < 0 || cut > len(layers) {
		panic(fmt.Sprintf("model: cut %d outside [0,%d]", cut, len(layers)))
	}
	full := nn.NewSequential(layers...)
	out := full.OutShape(a.InShape) // validates the whole stack
	if len(out) != 1 || out[0] != a.Classes {
		panic(fmt.Sprintf("model: arch %q outputs %v, want [%d]", a.Name, out, a.Classes))
	}
	return &SplitModel{
		Arch:   a,
		Cut:    cut,
		Client: nn.NewSequential(layers[:cut]...),
		Server: nn.NewSequential(layers[cut:]...),
	}
}

// SplitModel is a model cut into a client-side and a server-side half.
// Either half may be empty (cut 0 = fully server-side, which degenerates
// to centralized learning; cut = len(layers) degenerates to FL).
type SplitModel struct {
	Arch   Arch
	Cut    int
	Client *nn.Sequential
	Server *nn.Sequential
}

// Forward runs both halves, returning the logits. Used for evaluation and
// by the centralized baseline.
func (m *SplitModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Server.Forward(m.Client.Forward(x, train), train)
}

// SmashedShape returns the per-sample activation shape at the cut.
func (m *SplitModel) SmashedShape() []int {
	return m.Client.OutShape(m.Arch.InShape)
}

// SmashedBytes returns the wire size of the smashed data for a batch,
// including one label scalar per sample (the client ships labels with the
// activations so the server can compute the loss).
func (m *SplitModel) SmashedBytes(batch int) int64 {
	return m.SmashedBytesWith(batch, WireBytesPerScalar)
}

// SmashedBytesWith is SmashedBytes at an explicit per-scalar wire width
// (e.g. 1 for 8-bit quantized transfers).
func (m *SplitModel) SmashedBytesWith(batch, bytesPerScalar int) int64 {
	per := prodInt(m.SmashedShape()) + 1 // +1 label
	return int64(batch) * int64(per) * int64(bytesPerScalar)
}

// GradBytes returns the wire size of the cut-layer gradient for a batch.
func (m *SplitModel) GradBytes(batch int) int64 {
	return m.GradBytesWith(batch, WireBytesPerScalar)
}

// GradBytesWith is GradBytes at an explicit per-scalar wire width.
func (m *SplitModel) GradBytesWith(batch, bytesPerScalar int) int64 {
	return int64(batch) * int64(prodInt(m.SmashedShape())) * int64(bytesPerScalar)
}

// ClientParamBytes returns the wire size of the client-side model, the
// quantity transferred during model distribution and intra-group sharing.
func (m *SplitModel) ClientParamBytes() int64 {
	return int64(m.Client.ParamCount()) * WireBytesPerScalar
}

// ServerParamBytes returns the wire size of the server-side model.
func (m *SplitModel) ServerParamBytes() int64 {
	return int64(m.Server.ParamCount()) * WireBytesPerScalar
}

// ClientFwdFLOPs returns per-sample forward FLOPs of the client half.
func (m *SplitModel) ClientFwdFLOPs() int64 { return m.Client.FwdFLOPs(m.Arch.InShape) }

// ServerFwdFLOPs returns per-sample forward FLOPs of the server half.
func (m *SplitModel) ServerFwdFLOPs() int64 { return m.Server.FwdFLOPs(m.SmashedShape()) }

// prodInt multiplies the dimensions of a shape.
func prodInt(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
