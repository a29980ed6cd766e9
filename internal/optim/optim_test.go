package optim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// quadratic is the convex test problem f(p) = ||p - target||²; its exact
// gradient is 2(p-target). Every optimizer must drive p to target.
type quadratic struct {
	target *tensor.Tensor
}

func (q quadratic) grad(p *tensor.Tensor) *tensor.Tensor {
	g := tensor.Sub(p, q.target)
	return g.Scale(2)
}

func (q quadratic) value(p *tensor.Tensor) float64 {
	d := tensor.Sub(p, q.target)
	return tensor.Dot(d, d)
}

func runOptimizer(t *testing.T, opt Optimizer, steps int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	target := tensor.New(8).RandNormal(rng, 0, 1)
	p := tensor.New(8).RandNormal(rng, 0, 1)
	q := quadratic{target: target}
	for i := 0; i < steps; i++ {
		opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{q.grad(p)}, nil)
	}
	return q.value(p)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	if v := runOptimizer(t, NewSGDMomentum(0.1, 0), 200); v > 1e-10 {
		t.Fatalf("SGD final value %v, want ≈0", v)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	if v := runOptimizer(t, NewSGDMomentum(0.05, 0.9), 300); v > 1e-10 {
		t.Fatalf("SGD+momentum final value %v, want ≈0", v)
	}
}

func TestSGDSingleStepExact(t *testing.T) {
	p := tensor.FromSlice([]float64{1, 2}, 2)
	g := tensor.FromSlice([]float64{0.5, -0.5}, 2)
	NewSGDMomentum(0.1, 0).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	want := tensor.FromSlice([]float64{0.95, 2.05}, 2)
	if !tensor.AllClose(p, want, 1e-12) {
		t.Fatalf("p = %v, want %v", p, want)
	}
}

func TestWeightDecayShrinksParams(t *testing.T) {
	p := tensor.FromSlice([]float64{10}, 1)
	g := tensor.New(1) // zero gradient: only decay acts
	opt := NewSGDMomentum(0.1, 0)
	opt.WeightDecay = 0.5
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	// p -= lr * wd * p = 10 - 0.1*0.5*10 = 9.5
	if math.Abs(p.Data[0]-9.5) > 1e-12 {
		t.Fatalf("p = %v, want 9.5", p.Data[0])
	}
}

func TestDecayMaskExemptsParams(t *testing.T) {
	p1 := tensor.FromSlice([]float64{10}, 1)
	p2 := tensor.FromSlice([]float64{10}, 1)
	g1, g2 := tensor.New(1), tensor.New(1)
	opt := NewSGDMomentum(0.1, 0)
	opt.WeightDecay = 0.5
	opt.Step([]*tensor.Tensor{p1, p2}, []*tensor.Tensor{g1, g2}, []bool{true, false})
	if p1.Data[0] >= 10 {
		t.Fatal("decayed param did not shrink")
	}
	if p2.Data[0] != 10 {
		t.Fatalf("exempt param changed: %v", p2.Data[0])
	}
}

func TestClipNormCapsUpdates(t *testing.T) {
	p := tensor.New(2)
	g := tensor.FromSlice([]float64{300, 400}, 2) // norm 500
	opt := NewSGDMomentum(1.0, 0)
	opt.ClipNorm = 5
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	// Clipped gradient has norm 5 => update norm 5 with lr 1.
	if n := p.L2Norm(); math.Abs(n-5) > 1e-9 {
		t.Fatalf("update norm = %v, want 5", n)
	}
}

// TestClipNormOverflowingNormStillClips pins a finite gradient whose sum
// of squares overflows: it is clipped to the norm like any other, not
// zeroed. Infinite and NaN gradients keep their factors (0 and NaN).
func TestClipNormOverflowingNormStillClips(t *testing.T) {
	p := tensor.New(2)
	g := tensor.FromSlice([]float64{1e200, 0}, 2)
	opt := NewSGDMomentum(1.0, 0)
	opt.ClipNorm = 5
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	if p.Data[0] != -5 || p.Data[1] != 0 {
		t.Fatalf("p = %v, want [-5 0] (gradient clipped to norm 5)", p.Data)
	}
	spread := tensor.FromSlice([]float64{3e200, -4e200, 1}, 3) // norm 5e200
	if f := clipFactor([]*tensor.Tensor{spread}, 5); math.Abs(f*5e200-5) > 1e-12 {
		t.Fatalf("factor %v scales the norm to %v, want 5", f, f*5e200)
	}
	if f := clipFactor([]*tensor.Tensor{tensor.FromSlice([]float64{1e200, 0}, 2)}, 1e300); f != 1 {
		t.Fatalf("norm 1e200 under clip 1e300: factor %v, want 1", f)
	}
	if f := clipFactor([]*tensor.Tensor{tensor.FromSlice([]float64{math.Inf(-1), 1e200}, 2)}, 5); f != 0 {
		t.Fatalf("infinite gradient: factor %v, want 0", f)
	}
	if f := clipFactor([]*tensor.Tensor{tensor.FromSlice([]float64{math.NaN(), 1e200}, 2)}, 5); !math.IsNaN(f) {
		t.Fatalf("NaN gradient: factor %v, want NaN", f)
	}
}

func TestClipNormNoEffectWhenSmall(t *testing.T) {
	p := tensor.New(1)
	g := tensor.FromSlice([]float64{0.1}, 1)
	opt := NewSGDMomentum(1.0, 0)
	opt.ClipNorm = 5
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	if math.Abs(p.Data[0]+0.1) > 1e-12 {
		t.Fatalf("p = %v, want -0.1 (unclipped)", p.Data[0])
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecayLR(1.0, 0.5, 10)
	cases := map[int]float64{0: 1.0, 9: 1.0, 10: 0.5, 19: 0.5, 20: 0.25}
	for step, want := range cases {
		if got := s(step); math.Abs(got-want) > 1e-12 {
			t.Fatalf("schedule(%d) = %v, want %v", step, got, want)
		}
	}
}

func TestScheduleDrivenSGD(t *testing.T) {
	opt := &SGD{Schedule: StepDecayLR(0.2, 0.5, 100)}
	if v := runOptimizer(t, opt, 300); v > 1e-8 {
		t.Fatalf("scheduled SGD final value %v", v)
	}
}

func TestMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned params/grads")
		}
	}()
	NewSGDMomentum(0.1, 0).Step([]*tensor.Tensor{tensor.New(1)}, nil, nil)
}

func TestMomentumAcceleratesOnRavine(t *testing.T) {
	// On an ill-conditioned quadratic, momentum should reach a lower value
	// than plain SGD in the same number of steps with the same LR.
	build := func() (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor, func(*tensor.Tensor) float64) {
		p := tensor.FromSlice([]float64{5, 5}, 2)
		grad := func(p *tensor.Tensor) *tensor.Tensor {
			return tensor.FromSlice([]float64{2 * 0.01 * p.Data[0], 2 * 1.0 * p.Data[1]}, 2)
		}
		val := func(p *tensor.Tensor) float64 {
			return 0.01*p.Data[0]*p.Data[0] + p.Data[1]*p.Data[1]
		}
		return p, grad, val
	}
	run := func(opt Optimizer) float64 {
		p, grad, val := build()
		for i := 0; i < 100; i++ {
			opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{grad(p)}, nil)
		}
		return val(p)
	}
	plain := run(NewSGDMomentum(0.1, 0))
	mom := run(NewSGDMomentum(0.1, 0.9))
	if mom >= plain {
		t.Fatalf("momentum (%v) should beat plain SGD (%v) on a ravine", mom, plain)
	}
}

func TestSGDStateRestoreContinuesBitIdentically(t *testing.T) {
	mk := func() *SGD {
		opt := NewSGDMomentum(0.1, 0.9)
		opt.Schedule = StepDecayLR(0.1, 0.5, 3) // step count must survive too
		return opt
	}
	params := func() []*tensor.Tensor {
		return []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3}, 3)}
	}
	grad := []*tensor.Tensor{tensor.FromSlice([]float64{0.5, -1, 0.25}, 3)}

	ref, p1 := mk(), params()
	for i := 0; i < 4; i++ {
		ref.Step(p1, grad, nil)
	}
	var st SGDState
	ref.StateInto(&st)

	restored, p2 := mk(), params()
	// Bring p2 to p1's current values (the model snapshot does this in a
	// real checkpoint), then restore optimizer state.
	copy(p2[0].Data, p1[0].Data)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ref.Step(p1, grad, nil)
		restored.Step(p2, grad, nil)
	}
	for j := range p1[0].Data {
		if p1[0].Data[j] != p2[0].Data[j] {
			t.Fatalf("param %d diverged after restore: %v vs %v", j, p1[0].Data[j], p2[0].Data[j])
		}
	}
}

// The TCP relay ships and restores a client optimizer every turn:
// StateInto and Restore reuse the buffers they hold when the shapes
// fit, and every copy is deep.
func TestSGDStateBuffersAreReused(t *testing.T) {
	opt := NewSGDMomentum(0.1, 0.9)
	params := []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3}, 3), tensor.FromSlice([]float64{4, 5}, 2)}
	grads := []*tensor.Tensor{tensor.FromSlice([]float64{0.5, -1, 0.25}, 3), tensor.FromSlice([]float64{1, -2}, 2)}
	opt.Step(params, grads, nil)

	state := func(o *SGD) SGDState {
		var st SGDState
		o.StateInto(&st)
		return st
	}
	want := SGDState{Step: 1}
	for _, v := range opt.Velocity() {
		want.VelocityShapes = append(want.VelocityShapes, v.Shape())
		want.VelocityData = append(want.VelocityData, append([]float64(nil), v.Data...))
	}
	st := state(opt)
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("StateInto gave %+v, want %+v", st, want)
	}
	if n := testing.AllocsPerRun(10, func() { opt.StateInto(&st) }); n != 0 {
		t.Fatalf("StateInto into a used state allocates %v times", n)
	}

	restored := NewSGDMomentum(0.1, 0.9)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	v := &restored.Velocity()[0].Data[0]
	if n := testing.AllocsPerRun(10, func() {
		if err := restored.Restore(st); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Restore into buffers that fit allocates %v times", n)
	}
	if &restored.Velocity()[0].Data[0] != v {
		t.Fatal("Restore replaced a buffer that fit")
	}
	if got := state(restored); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored %+v, want %+v", got, st)
	}

	var cp SGDState
	cp.CopyFrom(st)
	if !reflect.DeepEqual(cp, st) {
		t.Fatalf("CopyFrom gave %+v, want %+v", cp, st)
	}
	if n := testing.AllocsPerRun(10, func() { cp.CopyFrom(st) }); n != 0 {
		t.Fatalf("CopyFrom into a used state allocates %v times", n)
	}
	first := st.VelocityData[0][0]
	st.VelocityData[0][0], st.VelocityShapes[0][0] = 42, 7
	if cp.VelocityData[0][0] != first || cp.VelocityShapes[0][0] != 3 || restored.Velocity()[0].Data[0] != first {
		t.Fatal("a copy aliases the state it was made from")
	}

	// Other shapes, and no momentum at all, replace what was held.
	other := SGDState{Step: 5, VelocityShapes: [][]int{{2, 2}}, VelocityData: [][]float64{{1, 2, 3, 4}}}
	if err := restored.Restore(other); err != nil {
		t.Fatal(err)
	}
	cp.CopyFrom(other)
	if got := state(restored); !reflect.DeepEqual(got, other) || !reflect.DeepEqual(cp, other) {
		t.Fatalf("after a reshaping restore and copy: %+v and %+v, want %+v", got, cp, other)
	}
	if err := restored.Restore(SGDState{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if restored.Velocity() != nil || restored.Steps() != 1 {
		t.Fatalf("restoring no momentum left %d buffers at step %d", len(restored.Velocity()), restored.Steps())
	}
}

func TestSGDRestoreValidation(t *testing.T) {
	opt := NewSGDMomentum(0.1, 0.9)
	if err := opt.Restore(SGDState{Step: -1}); err == nil {
		t.Fatal("negative step must error")
	}
	if err := opt.Restore(SGDState{
		VelocityShapes: [][]int{{2}},
		VelocityData:   [][]float64{{1, 2, 3}},
	}); err == nil {
		t.Fatal("shape/data mismatch must error")
	}

	// A state that is sound in itself but belongs to another model —
	// the wrong number of buffers, or a buffer of the wrong size — is
	// only detectable against the parameters, so Step refuses it, and
	// does so before it has changed any of them.
	for name, st := range map[string]SGDState{
		"wrong count": {VelocityShapes: [][]int{{3}}, VelocityData: [][]float64{{1, 2, 3}}},
		"wrong size":  {VelocityShapes: [][]int{{3}, {1}}, VelocityData: [][]float64{{1, 2, 3}, {4}}},
	} {
		opt := NewSGDMomentum(0.1, 0.9)
		if err := opt.Restore(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		params := []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3}, 3), tensor.FromSlice([]float64{4, 5}, 2)}
		grads := []*tensor.Tensor{tensor.FromSlice([]float64{1, 1, 1}, 3), tensor.FromSlice([]float64{1, 1}, 2)}
		before := []*tensor.Tensor{params[0].Clone(), params[1].Clone()}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Step accepted a velocity that does not fit the params", name)
				}
			}()
			opt.Step(params, grads, nil)
		}()
		for i := range params {
			testutil.RequireSameBits(t, name+": params after the refused step", params[i].Data, before[i].Data)
		}
	}
}

// BenchmarkSGDStep is one update of the paper model's server half as
// the benchmark spine runs it (16-pixel GTSRB CNN cut after the first
// conv block: conv 8→16, dense 256→64, dense 64→43), with momentum,
// weight decay on the weights and clipping on — the configuration every
// workload trains with.
func BenchmarkSGDStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var params, grads []*tensor.Tensor
	var decay []bool
	size := 0
	for _, shape := range [][]int{{16, 72}, {16}, {256, 64}, {64}, {64, 43}, {43}} {
		params = append(params, tensor.New(shape...).RandNormal(rng, 0, 0.1))
		grads = append(grads, tensor.New(shape...).RandNormal(rng, 0, 0.01))
		decay = append(decay, len(shape) > 1)
		size += params[len(params)-1].Size()
	}
	sgd := NewSGDMomentum(0.01, 0.9)
	sgd.WeightDecay = 1e-4
	sgd.ClipNorm = 5
	b.SetBytes(int64(8 * size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sgd.Step(params, grads, decay)
	}
}

// referenceClipFactor defines the clip factor: one ordered accumulator
// over the squares and nothing else. clipFactor must return its bits on
// every input.
func referenceClipFactor(grads []*tensor.Tensor, clip float64) float64 {
	if clip <= 0 {
		return 1
	}
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

func requireClipFactor(t *testing.T, what string, grads []*tensor.Tensor, clip float64) {
	t.Helper()
	got, want := clipFactor(grads, clip), referenceClipFactor(grads, clip)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s, clip %v (bits %016x): factor %v (bits %016x), serial %v (bits %016x)",
			what, clip, math.Float64bits(clip), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// clipGrads splits vals into tensors of the given sizes (the rest, if
// any, in one more).
func clipGrads(vals []float64, sizes ...int) []*tensor.Tensor {
	var grads []*tensor.Tensor
	for _, n := range sizes {
		n = min(n, len(vals))
		grads = append(grads, tensor.FromSlice(vals[:n:n], n))
		vals = vals[n:]
	}
	if len(vals) > 0 {
		grads = append(grads, tensor.FromSlice(vals, len(vals)))
	}
	return grads
}

// nearClips returns clips around the serial norm of grads: within a few
// ulps either side, and either side of underClip's margin.
func nearClips(grads []*tensor.Tensor) []float64 {
	ss, n := 0.0, 0
	for _, g := range grads {
		n += g.Size()
		for _, v := range g.Data {
			ss += float64(v * v)
		}
	}
	norm := math.Sqrt(ss)
	var clips []float64
	for c, k := norm, 0; k < 6; k, c = k+1, math.Nextafter(c, math.Inf(1)) {
		clips = append(clips, c)
	}
	for c, k := norm, 0; k < 6; k, c = k+1, math.Nextafter(c, 0) {
		clips = append(clips, c)
	}
	// underClip's threshold is clip²·(1 − (n+4)·2⁻⁵¹): these put the
	// norm at a quarter of that margin up to twice it below the clip.
	margin := float64(n+4) * 0x1p-51
	for _, f := range []float64{0.25, 0.5, 0.9, 1, 1.1, 2} {
		clips = append(clips, norm*math.Sqrt(1+f*margin), norm/math.Sqrt(1-f*margin))
	}
	return clips
}

// TestClipFactorMatchesSerial: the vector bound never changes the
// factor — at norms a few ulps either side of the clip and either side
// of the bound's margin, on gradients with NaN, ±Inf, values whose
// squares overflow and subnormals, at clip +Inf, at a clip whose square
// is subnormal, and with no gradient values at all.
func TestClipFactorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.3e154, -1e154, 1e200,
		5e-324, -2e-310, 1e-160, 0, math.Copysign(0, -1)}
	fixedClips := []float64{math.Inf(1), 1e-160, 1e-155, 0x1p-511, 0x1p-512, 5e-324, 1, 5, 1e154, 1.4e154,
		math.MaxFloat64, -1, 0, math.NaN()}
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 1000, 4099} {
		for trial := 0; trial < 6; trial++ {
			vals := make([]float64, n)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			for i := range vals {
				vals[i] = rng.NormFloat64() * scale
			}
			sizes := []int{rng.Intn(n + 1), rng.Intn(9), 0, rng.Intn(n + 1)}
			what := func(kind string) string { return fmt.Sprintf("n=%d trial=%d %s", n, trial, kind) }
			grads := clipGrads(vals, sizes...)
			for _, clip := range append(nearClips(grads), fixedClips...) {
				requireClipFactor(t, what("finite"), grads, clip)
			}
			if n == 0 {
				continue
			}
			for _, v := range special {
				hostile := append([]float64(nil), vals...)
				hostile[rng.Intn(n)] = v
				grads := clipGrads(hostile, sizes...)
				for _, clip := range append(nearClips(grads), fixedClips...) {
					requireClipFactor(t, what(fmt.Sprintf("with %v", v)), grads, clip)
				}
			}
			tiny := make([]float64, n) // every square subnormal or zero
			for i := range tiny {
				tiny[i] = vals[i] * 1e-160 / scale
			}
			grads = clipGrads(tiny, sizes...)
			for _, clip := range append(nearClips(grads), fixedClips...) {
				requireClipFactor(t, what("subnormal squares"), grads, clip)
			}
		}
	}
	for _, clip := range fixedClips {
		requireClipFactor(t, "no tensors", nil, clip)
		requireClipFactor(t, "empty tensors", []*tensor.Tensor{tensor.New(0), tensor.New(0)}, clip)
	}
}

// FuzzClipFactor continues TestClipFactorMatchesSerial with
// fuzzer-chosen values, tensor sizes and clips: raw is read as
// little-endian float64s laid over a seeded draw, and mode picks whether
// the clip is clipBits itself or a clip near the norm.
func FuzzClipFactor(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), uint8(0), uint64(0x4014000000000000), []byte{})
	f.Add(int64(2), uint16(9), uint8(1), uint8(1), uint64(0), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F})
	f.Add(int64(3), uint16(300), uint8(7), uint8(2), uint64(0x7FF0000000000000), []byte{0, 0, 0, 0, 0, 0, 0x00, 0x60})
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, split uint8, mode uint8, clipBits uint64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(nn)%2048)
		scale := math.Pow(10, float64(rng.Intn(17)-8))
		for i := range vals {
			vals[i] = rng.NormFloat64() * scale
			if len(raw) >= 8 {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			}
		}
		sizes := make([]int, int(split)%8)
		for i := range sizes {
			sizes[i] = rng.Intn(len(vals) + 1)
		}
		grads := clipGrads(vals, sizes...)
		clips := []float64{math.Float64frombits(clipBits)}
		if mode%2 == 1 {
			clips = nearClips(grads)
		}
		for _, clip := range clips {
			requireClipFactor(t, fmt.Sprintf("n=%d sizes=%v", len(vals), sizes), grads, clip)
		}
	})
}
