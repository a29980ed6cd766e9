package optim

import (
	"math"
	"math/rand"
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
	if v := runOptimizer(t, NewSGD(0.1), 200); v > 1e-10 {
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
	NewSGD(0.1).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}, nil)
	want := tensor.FromSlice([]float64{0.95, 2.05}, 2)
	if !tensor.AllClose(p, want, 1e-12) {
		t.Fatalf("p = %v, want %v", p, want)
	}
}

func TestWeightDecayShrinksParams(t *testing.T) {
	p := tensor.FromSlice([]float64{10}, 1)
	g := tensor.New(1) // zero gradient: only decay acts
	opt := NewSGD(0.1)
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
	opt := NewSGD(0.1)
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
	opt := NewSGD(1.0)
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
	opt := NewSGD(1.0)
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
	opt := NewSGD(1.0)
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
	NewSGD(0.1).Step([]*tensor.Tensor{tensor.New(1)}, nil, nil)
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
	plain := run(NewSGD(0.1))
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
	st := ref.State()

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
