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

// NewSplit builds the architecture from rng and cuts it at layer index
// cut (see Split).
func (a Arch) NewSplit(rng *rand.Rand, cut int) *SplitModel { return a.Split(a.Build(rng), cut) }

// Split cuts layers, a stack a.Build made, at layer index cut:
// client = layers[:cut], server = layers[cut:]. It validates that the
// stack is assemblable (shape propagation panics otherwise) and prices
// the per-sample quantities the latency model charges every turn, so
// pricing never walks the layers again.
func (a Arch) Split(layers []nn.Layer, cut int) *SplitModel {
	if cut < 0 || cut > len(layers) {
		panic(fmt.Sprintf("model: cut %d outside [0,%d]", cut, len(layers)))
	}
	full := nn.NewSequential(layers...)
	out := full.OutShape(a.InShape) // validates the whole stack
	if len(out) != 1 || out[0] != a.Classes {
		panic(fmt.Sprintf("model: arch %q outputs %v, want [%d]", a.Name, out, a.Classes))
	}
	m := &SplitModel{
		Arch:   a,
		Cut:    cut,
		Client: nn.NewSequential(layers[:cut]...),
		Server: nn.NewSequential(layers[cut:]...),
	}
	smashed := m.SmashedShape()
	m.smashedScalars = int64(prodInt(smashed))
	m.clientFwdFLOPs = m.Client.FwdFLOPs(a.InShape)
	m.serverFwdFLOPs = m.Server.FwdFLOPs(smashed)
	m.clientParams = int64(m.Client.ParamCount())
	return m
}

// SplitModel is a model cut into a client-side and a server-side half.
// Either half may be empty (cut 0 = fully server-side, which degenerates
// to centralized learning; cut = len(layers) degenerates to FL).
type SplitModel struct {
	Arch   Arch
	Cut    int
	Client *nn.Sequential
	Server *nn.Sequential

	// Costs fixed by the architecture and the cut, computed once by
	// NewSplit: per sample, the activations at the cut and each half's
	// forward FLOPs; and the client half's parameter count.
	smashedScalars                 int64
	clientFwdFLOPs, serverFwdFLOPs int64
	clientParams                   int64
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
	per := m.smashedScalars + 1 // +1 label
	return int64(batch) * per * int64(bytesPerScalar)
}

// GradBytesWith returns the wire size of the cut-layer gradient for a
// batch at the given per-scalar wire width.
func (m *SplitModel) GradBytesWith(batch, bytesPerScalar int) int64 {
	return int64(batch) * m.smashedScalars * int64(bytesPerScalar)
}

// ClientParamBytes returns the wire size of the client-side model, the
// quantity transferred during model distribution and intra-group sharing.
func (m *SplitModel) ClientParamBytes() int64 {
	return m.clientParams * WireBytesPerScalar
}

// ClientFwdFLOPs returns per-sample forward FLOPs of the client half.
func (m *SplitModel) ClientFwdFLOPs() int64 { return m.clientFwdFLOPs }

// ServerFwdFLOPs returns per-sample forward FLOPs of the server half.
func (m *SplitModel) ServerFwdFLOPs() int64 { return m.serverFwdFLOPs }

// prodInt multiplies the dimensions of a shape.
func prodInt(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
