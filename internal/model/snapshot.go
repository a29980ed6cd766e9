package model

import (
	"fmt"
	"math"

	"gsfl/internal/nn"
	"gsfl/internal/tensor"
)

// Snapshot is a deep copy of a model half's parameters: the unit of
// transfer for model distribution, intra-group sharing, and FedAvg
// aggregation. Snapshots are immutable by convention — every consumer
// copies data out rather than aliasing in.
type Snapshot struct {
	Tensors []*tensor.Tensor
}

// TakeSnapshot deep-copies the parameters of a Sequential.
func TakeSnapshot(s *nn.Sequential) Snapshot {
	var sn Snapshot
	sn.CaptureFrom(s)
	return sn
}

// CaptureFrom re-captures the parameters of s into the snapshot in
// place, reusing its tensors (they are allocated on first use). It is
// the destination-passing form of TakeSnapshot: trainers keep one
// snapshot per replica and re-capture every round without allocating.
// The Sequential must have the same parameter structure as the previous
// capture.
func (sn *Snapshot) CaptureFrom(s *nn.Sequential) {
	ps := s.Params()
	if sn.Tensors == nil {
		sn.Tensors = make([]*tensor.Tensor, len(ps))
		for i, p := range ps {
			sn.Tensors[i] = p.Clone()
		}
		return
	}
	if len(sn.Tensors) != len(ps) {
		panic(fmt.Sprintf("model: capturing %d params into snapshot of %d tensors", len(ps), len(sn.Tensors)))
	}
	for i, p := range ps {
		sn.Tensors[i].CopyFrom(p)
	}
}

// Restore copies the snapshot's parameters into the Sequential, which
// must have the identical parameter structure.
func (sn Snapshot) Restore(s *nn.Sequential) {
	ps := s.Params()
	if len(ps) != len(sn.Tensors) {
		panic(fmt.Sprintf("model: snapshot has %d tensors, target has %d params", len(sn.Tensors), len(ps)))
	}
	for i, p := range ps {
		p.CopyFrom(sn.Tensors[i])
	}
}

// Clone deep-copies the snapshot.
func (sn Snapshot) Clone() Snapshot {
	out := make([]*tensor.Tensor, len(sn.Tensors))
	for i, t := range sn.Tensors {
		out[i] = t.Clone()
	}
	return Snapshot{Tensors: out}
}

// ParamCount returns the number of scalar parameters in the snapshot.
func (sn Snapshot) ParamCount() int {
	n := 0
	for _, t := range sn.Tensors {
		n += t.Size()
	}
	return n
}

// WireBytes returns the transfer size of the snapshot.
func (sn Snapshot) WireBytes() int64 {
	return int64(sn.ParamCount()) * WireBytesPerScalar
}

// L2Distance returns the Euclidean distance between two snapshots viewed
// as flat vectors; used by convergence diagnostics and tests.
func (sn Snapshot) L2Distance(other Snapshot) float64 {
	if len(sn.Tensors) != len(other.Tensors) {
		panic("model: L2Distance between structurally different snapshots")
	}
	ss := 0.0
	for i, t := range sn.Tensors {
		o := other.Tensors[i]
		if t.Size() != o.Size() {
			panic(fmt.Sprintf("model: snapshot tensor %d size mismatch", i))
		}
		for j, v := range t.Data {
			d := v - o.Data[j]
			ss += float64(d * d)
		}
	}
	return math.Sqrt(ss)
}
