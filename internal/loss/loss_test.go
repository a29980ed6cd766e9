package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gsfl/internal/tensor"
)

// xent evaluates the loss into a fresh gradient tensor.
func xent(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := &tensor.Tensor{}
	return SoftmaxCrossEntropy{}.EvalInto(logits, labels, grad), grad
}

func TestSoftmaxXentUniformLogits(t *testing.T) {
	// All-zero logits => uniform softmax => loss = ln(C).
	logits := tensor.New(4, 10)
	l, grad := xent(logits, []int{0, 1, 2, 3})
	if math.Abs(l-math.Log(10)) > 1e-12 {
		t.Fatalf("loss = %v, want ln(10) = %v", l, math.Log(10))
	}
	// Gradient rows must sum to zero (softmax sums to 1, minus the one-hot).
	for i := 0; i < 4; i++ {
		s := 0.0
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxXentPerfectPrediction(t *testing.T) {
	logits := tensor.New(1, 3)
	logits.Set(100, 0, 2) // overwhelming confidence in the true class
	l, _ := xent(logits, []int{2})
	if l > 1e-9 {
		t.Fatalf("confident correct prediction loss = %v, want ≈0", l)
	}
}

func TestSoftmaxXentNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0}, 1, 3)
	l, grad := xent(logits, []int{0})
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("loss = %v with extreme logits", l)
	}
	for _, v := range grad.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN in gradient with extreme logits")
		}
	}
}

func TestSoftmaxXentGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(3, 5).RandNormal(rng, 0, 2)
	labels := []int{4, 0, 2}
	_, grad := xent(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := xent(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := xent(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range label")
		}
	}()
	xent(tensor.New(1, 3), []int{3})
}

func TestEmptyBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty batch")
		}
	}()
	xent(tensor.New(0, 3), nil)
}

func TestLabelCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label count mismatch")
		}
	}()
	xent(tensor.New(2, 3), []int{0})
}

// prop: softmax cross-entropy is invariant to shifting all logits in a row
// by a constant, and its gradient rows always sum to ~0.
func TestPropXentShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(4), 2+rng.Intn(6)
		logits := tensor.New(n, c).RandNormal(rng, 0, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		l1, g1 := xent(logits, labels)
		shift := rng.NormFloat64() * 5
		shifted := logits.Clone().Apply(func(v float64) float64 { return v + shift })
		l2, _ := xent(shifted, labels)
		if math.Abs(l1-l2) > 1e-8*(1+math.Abs(l1)) {
			return false
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for _, v := range g1.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: loss is always ≥ 0 and decreases when the true-class logit grows.
func TestPropXentMonotoneInTrueLogit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 2 + rng.Intn(6)
		logits := tensor.New(1, c).RandNormal(rng, 0, 2)
		label := []int{rng.Intn(c)}
		l1, _ := xent(logits, label)
		logits.Row(0)[label[0]] += 1.0
		l2, _ := xent(logits, label)
		return l1 >= 0 && l2 < l1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
