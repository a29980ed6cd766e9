// Package optim implements the gradient-descent optimizers the training
// schemes use to update client-side and server-side model halves.
//
// An Optimizer owns per-parameter state (momentum buffers) keyed by
// position, so each model half gets its own optimizer instance; the
// split schemes create one per server-side replica and one per
// client-side model, mirroring how the paper's AP and clients update
// their halves independently.
package optim

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// Optimizer updates parameters in place from accumulated gradients.
type Optimizer interface {
	// Name identifies the optimizer in traces.
	Name() string
	// Step applies one update. params and grads are aligned; decay is an
	// optional mask (nil = decay everything) marking which parameters
	// receive L2 weight decay.
	Step(params, grads []*tensor.Tensor, decay []bool)
}

// LRSchedule maps a 0-based step index to a learning rate.
type LRSchedule func(step int) float64

// ConstLR returns a schedule that always yields lr.
func ConstLR(lr float64) LRSchedule { return func(int) float64 { return lr } }

// StepDecayLR multiplies lr by factor every interval steps.
func StepDecayLR(lr, factor float64, interval int) LRSchedule {
	if interval <= 0 {
		panic(fmt.Sprintf("optim: StepDecayLR interval must be positive, got %d", interval))
	}
	return func(step int) float64 {
		return lr * math.Pow(factor, float64(step/interval))
	}
}

// SGD is stochastic gradient descent with optional momentum, L2 weight
// decay, and gradient clipping by global norm.
type SGD struct {
	Schedule    LRSchedule
	Momentum    float64
	WeightDecay float64
	// ClipNorm, when positive, rescales gradients so their global L2 norm
	// never exceeds it. Stabilizes early split-training steps.
	ClipNorm float64

	step     int
	velocity []*tensor.Tensor
}

// NewSGDMomentum constructs SGD with momentum.
func NewSGDMomentum(lr, momentum float64) *SGD {
	return &SGD{Schedule: ConstLR(lr), Momentum: momentum}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer. Everything that can be wrong with its
// operands — params against grads, decay flags, a Restored velocity —
// is checked before the first element is written.
func (s *SGD) Step(params, grads []*tensor.Tensor, decay []bool) {
	checkAligned(params, grads, decay, s.velocity)
	lr := s.Schedule(s.step)
	s.step++

	clipScale := clipFactor(grads, s.ClipNorm)

	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Shape()...)
		}
	}
	for i, p := range params {
		g := grads[i]
		wd := s.WeightDecay
		if decay != nil && !decay[i] {
			wd = 0
		}
		if s.Momentum != 0 {
			tensor.SGDMomentum(p.Data, s.velocity[i].Data, g.Data, lr, s.Momentum, clipScale, wd)
			continue
		}
		// No workload runs without momentum, so this branch has no
		// vector body. The conversions keep arm64 from fusing a product
		// into the sum that consumes it (see tensor/vec.go).
		for j := range p.Data {
			gj := float64(g.Data[j]*clipScale) + float64(wd*p.Data[j])
			p.Data[j] -= float64(lr * gj)
		}
	}
}

// SGDState is an SGD optimizer's complete mutable state — the step
// counter (which drives LR schedules) and the momentum buffers — as
// plain data: what a decoded checkpoint or relay frame holds.
type SGDState struct {
	Step int
	// VelocityShapes/VelocityData hold the per-parameter momentum
	// buffers; both are empty when momentum is disabled or no step has
	// allocated them yet.
	VelocityShapes [][]int
	VelocityData   [][]float64
}

// Steps returns the number of updates applied so far.
func (s *SGD) Steps() int { return s.step }

// Velocity returns the live momentum buffers (empty when momentum is
// disabled or no step has allocated them yet) — read-only, for the
// checkpoint encoder, which writes them without the copy State makes.
func (s *SGD) Velocity() []*tensor.Tensor { return s.velocity }

// StateInto deep-copies the optimizer's state into dst, reusing dst's
// buffers where they are large enough: the TCP relay ships the state
// every turn from one destination.
func (s *SGD) StateInto(dst *SGDState) {
	dst.Step = s.step
	dst.resize(len(s.velocity))
	for i, v := range s.velocity {
		dst.VelocityShapes[i] = v.AppendShape(dst.VelocityShapes[i][:0])
		dst.VelocityData[i] = append(dst.VelocityData[i][:0], v.Data...)
	}
}

// CopyFrom sets st to a deep copy of src, reusing st's buffers where
// they are large enough.
func (st *SGDState) CopyFrom(src SGDState) {
	st.Step = src.Step
	st.resize(len(src.VelocityShapes))
	for i, shape := range src.VelocityShapes {
		st.VelocityShapes[i] = append(st.VelocityShapes[i][:0], shape...)
		st.VelocityData[i] = append(st.VelocityData[i][:0], src.VelocityData[i]...)
	}
}

// resize gives st n velocity entries, keeping the buffers of those it
// already has.
func (st *SGDState) resize(n int) {
	for len(st.VelocityShapes) < n {
		st.VelocityShapes = append(st.VelocityShapes, nil)
	}
	for len(st.VelocityData) < n {
		st.VelocityData = append(st.VelocityData, nil)
	}
	st.VelocityShapes, st.VelocityData = st.VelocityShapes[:n], st.VelocityData[:n]
}

// Restore resets the optimizer to a state captured by StateInto. The
// optimizer must have been constructed with the same hyperparameters;
// subsequent steps then continue bit-identically. It copies st, into
// the momentum buffers the optimizer already has where they fit, and
// changes nothing when st is invalid.
func (s *SGD) Restore(st SGDState) error {
	if st.Step < 0 {
		return fmt.Errorf("optim: negative step count %d", st.Step)
	}
	if len(st.VelocityShapes) != len(st.VelocityData) {
		return fmt.Errorf("optim: %d velocity shapes vs %d buffers", len(st.VelocityShapes), len(st.VelocityData))
	}
	for i, shape := range st.VelocityShapes {
		n := 1
		for _, d := range shape {
			if d < 0 {
				return fmt.Errorf("optim: velocity %d has negative dimension", i)
			}
			n *= d
		}
		if n != len(st.VelocityData[i]) {
			return fmt.Errorf("optim: velocity %d shape %v does not match %d values", i, shape, len(st.VelocityData[i]))
		}
	}
	s.step = st.Step
	if len(st.VelocityShapes) == 0 {
		s.velocity = nil
		return nil
	}
	if len(s.velocity) != len(st.VelocityShapes) {
		s.velocity = make([]*tensor.Tensor, len(st.VelocityShapes))
	}
	for i, shape := range st.VelocityShapes {
		if s.velocity[i] == nil {
			s.velocity[i] = new(tensor.Tensor)
		}
		copy(s.velocity[i].Ensure(shape...).Data, st.VelocityData[i])
	}
	return nil
}

// clipFactor returns the multiplier that caps the global gradient norm at
// clip (1 when clipping is disabled or unnecessary). serialClipFactor,
// one ordered accumulator over the squares, defines it; underClip only
// settles the common case — a norm under the clip — faster.
func clipFactor(grads []*tensor.Tensor, clip float64) float64 {
	if clip <= 0 || underClip(grads, clip) {
		return 1
	}
	return serialClipFactor(grads, clip)
}

// underClip reports whether serialClipFactor(grads, clip) is certainly
// 1, judging from tensor.SumSquares, which sums the same squares in
// another order. It says yes when that sum t is finite, clip² is a
// normal float and t ≤ clip²·(1 − (n+4)·2⁻⁵¹) for n squares; every other
// case goes to the serial sum.
//
// Why yes is right. Both sums add the same n rounded squares qᵢ ≥ 0 —
// a square is one correctly rounded product whatever the order — so
// they differ only in how the n − 1 additions associate. Let S = Σqᵢ
// exactly, u = 2⁻⁵³ and γ = (n−1)u / (1−(n−1)u). Each rounded addition
// is exact times (1+δ), |δ| ≤ u, even in the subnormal range (adding a
// zero, as each accumulator's first addition does, is exact), and each
// qᵢ passes through at most n − 1 of them, so every order of summing
// non-negative terms lands in [(1−γ)S, (1+γ)S] (Higham, Accuracy and
// Stability of Numerical Algorithms, §4.2). With s the serial sum,
// s ≤ (1+γ)S ≤ t·(1+γ)/(1−γ) = t / (1 − 2(n−1)u). A finite t means no
// partial sum overflowed: adding non-negative terms is monotone.
//
// The threshold is three rounded operations: clip·clip, 1 − (n+4)·4u
// (the product is exact) and their product. The first two are within u
// of exact; the third stays within 2u even when it is subnormal, since
// it is at least 2⁻¹⁰²² · 1/2 (clip² normal, and n < 2⁴⁹ for any slice
// that fits in memory). So t ≤ threshold gives
//
//	s ≤ clip² (1+u)²(1+2u)(1 − 4(n+4)u) / (1 − 2(n−1)u)
//	  ≤ clip² (1 − (4n+11)u) / (1 − (2n−2)u) < clip²,
//
// hence √s ≤ clip: the square root is correctly rounded, so monotone,
// and clip is itself a float. serialClipFactor then returns 1.
func underClip(grads []*tensor.Tensor, clip float64) bool {
	c2 := clip * clip
	if !(c2 >= 0x1p-1022 && c2 <= math.MaxFloat64) {
		return false
	}
	n, t := 0, 0.0
	for _, g := range grads {
		n += len(g.Data)
		t += tensor.SumSquares(g.Data)
	}
	// The conversion keeps arm64 from fusing the product into the
	// subtraction (see tensor/vec.go).
	return t <= c2*(1-float64(float64(n+4)*0x1p-51))
}

// serialClipFactor is clipFactor from one ordered accumulator over the
// squares.
//
// A finite gradient with a value of magnitude ≳ 1.3e154 has a sum of
// squares that overflows to +Inf, and clip/Inf would zero the whole
// step; only then is the norm taken again with every value scaled by the
// largest magnitude. An infinite or NaN value keeps the plain sum's
// factor (0 or NaN), as does every finite sum.
func serialClipFactor(grads []*tensor.Tensor, clip float64) float64 {
	ss := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			ss += float64(v * v)
		}
	}
	if math.IsInf(ss, 1) {
		if scale := maxAbs(grads); !math.IsInf(scale, 1) {
			return scaledClipFactor(grads, clip, scale)
		}
	}
	norm := math.Sqrt(ss)
	if norm <= clip {
		return 1
	}
	return clip / norm
}

// maxAbs returns the largest magnitude among grads' values.
func maxAbs(grads []*tensor.Tensor) float64 {
	m := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			m = max(m, math.Abs(v))
		}
	}
	return m
}

// scaledClipFactor is clipFactor for finite grads whose largest
// magnitude is scale: the norm is scale·√Σ(v/scale)², whose sum lies in
// [1, len], and the comparison with clip is made in the same units.
func scaledClipFactor(grads []*tensor.Tensor, clip, scale float64) float64 {
	ss := 0.0
	for _, g := range grads {
		for _, v := range g.Data {
			r := v / scale
			ss += float64(r * r)
		}
	}
	rel, root := clip/scale, math.Sqrt(ss)
	if root <= rel {
		return 1
	}
	return rel / root
}

// checkAligned panics unless grads, decay (when given) and velocity
// (nil until the first momentum step allocates it, or whatever Restore
// installed) each line up with params, count and sizes.
func checkAligned(params, grads []*tensor.Tensor, decay []bool, velocity []*tensor.Tensor) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optim: %d params vs %d grads", len(params), len(grads)))
	}
	if decay != nil && len(decay) != len(params) {
		panic(fmt.Sprintf("optim: %d params vs %d decay flags", len(params), len(decay)))
	}
	if velocity != nil && len(velocity) != len(params) {
		panic(fmt.Sprintf("optim: %d params vs %d velocity buffers", len(params), len(velocity)))
	}
	for i := range params {
		if params[i].Size() != grads[i].Size() {
			panic(fmt.Sprintf("optim: param %d size %d vs grad size %d", i, params[i].Size(), grads[i].Size()))
		}
		if velocity != nil && params[i].Size() != velocity[i].Size() {
			panic(fmt.Sprintf("optim: param %d size %d vs velocity size %d", i, params[i].Size(), velocity[i].Size()))
		}
	}
}
