package metrics

import (
	"math"
	"testing"
)

func mkCurve(scheme string, pts ...Point) *Curve {
	c := &Curve{Scheme: scheme}
	for _, p := range pts {
		c.Append(p)
	}
	return c
}

func TestAppendValidation(t *testing.T) {
	c := mkCurve("x", Point{Round: 1, Accuracy: 0.1})
	mustPanic := func(name string, p Point) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		c.Append(p)
	}
	mustPanic("same round", Point{Round: 1})
	mustPanic("backward latency", Point{Round: 2, LatencySeconds: -1})
}

func TestFinalAndBestAccuracy(t *testing.T) {
	c := mkCurve("x",
		Point{Round: 1, Accuracy: 0.3},
		Point{Round: 2, Accuracy: 0.9},
		Point{Round: 3, Accuracy: 0.7},
	)
	if c.FinalAccuracy() != 0.7 {
		t.Fatalf("FinalAccuracy = %v", c.FinalAccuracy())
	}
	if c.BestAccuracy() != 0.9 {
		t.Fatalf("BestAccuracy = %v", c.BestAccuracy())
	}
	empty := &Curve{}
	if empty.FinalAccuracy() != 0 || empty.BestAccuracy() != 0 {
		t.Fatal("empty curve accuracies must be 0")
	}
}

func TestRoundsAndLatencyToAccuracy(t *testing.T) {
	c := mkCurve("x",
		Point{Round: 10, LatencySeconds: 5, Accuracy: 0.2},
		Point{Round: 20, LatencySeconds: 12, Accuracy: 0.55},
		Point{Round: 30, LatencySeconds: 20, Accuracy: 0.8},
	)
	if r, ok := c.RoundsToAccuracy(0.5); !ok || r != 20 {
		t.Fatalf("RoundsToAccuracy = %d,%v", r, ok)
	}
	if l, ok := c.LatencyToAccuracy(0.5); !ok || l != 12 {
		t.Fatalf("LatencyToAccuracy = %v,%v", l, ok)
	}
	if _, ok := c.RoundsToAccuracy(0.99); ok {
		t.Fatal("unreached target must report !ok")
	}
}

func TestSpeedupVsRounds(t *testing.T) {
	fast := mkCurve("gsfl", Point{Round: 100, Accuracy: 0.8})
	slow := mkCurve("fl", Point{Round: 500, Accuracy: 0.8})
	s, ok := SpeedupVsRounds(fast, slow, 0.8)
	if !ok || math.Abs(s-5) > 1e-12 {
		t.Fatalf("speedup = %v,%v, want 5", s, ok)
	}
	if _, ok := SpeedupVsRounds(fast, slow, 0.95); ok {
		t.Fatal("speedup at unreachable target must be !ok")
	}
}

func TestDelayReduction(t *testing.T) {
	gsfl := mkCurve("gsfl", Point{Round: 1, LatencySeconds: 686, Accuracy: 0.9})
	sl := mkCurve("sl", Point{Round: 1, LatencySeconds: 1000, Accuracy: 0.9})
	r, ok := DelayReduction(gsfl, sl, 0.9)
	if !ok || math.Abs(r-0.314) > 1e-12 {
		t.Fatalf("reduction = %v,%v, want 0.314", r, ok)
	}
}

func TestMovingAverage(t *testing.T) {
	c := mkCurve("x",
		Point{Round: 1, Accuracy: 0.0, Loss: 2},
		Point{Round: 2, Accuracy: 1.0, Loss: 0},
		Point{Round: 3, Accuracy: 0.5, Loss: 1},
	)
	s := c.MovingAverage(2)
	want := []float64{0.0, 0.5, 0.75}
	for i, p := range s.Points {
		if math.Abs(p.Accuracy-want[i]) > 1e-12 {
			t.Fatalf("smoothed[%d] = %v, want %v", i, p.Accuracy, want[i])
		}
	}
	// Original untouched.
	if c.Points[1].Accuracy != 1.0 {
		t.Fatal("MovingAverage mutated the source curve")
	}
}

func TestMovingAverageValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Curve{}).MovingAverage(0)
}

func TestAccuracyAtLatencyInterpolation(t *testing.T) {
	c := mkCurve("x",
		Point{Round: 1, LatencySeconds: 10, Accuracy: 0.2},
		Point{Round: 2, LatencySeconds: 20, Accuracy: 0.6},
	)
	cases := map[float64]float64{
		5:  0.2, // clamp low
		10: 0.2,
		15: 0.4, // midpoint
		20: 0.6,
		99: 0.6, // clamp high
	}
	for at, want := range cases {
		if got := c.AccuracyAtLatency(at); math.Abs(got-want) > 1e-12 {
			t.Fatalf("AccuracyAtLatency(%v) = %v, want %v", at, got, want)
		}
	}
	if (&Curve{}).AccuracyAtLatency(1) != 0 {
		t.Fatal("empty curve interpolation must be 0")
	}
}

func TestAUCRounds(t *testing.T) {
	// Constant 0.5 accuracy => AUC 0.5.
	c := mkCurve("x",
		Point{Round: 0, Accuracy: 0.5},
		Point{Round: 10, Accuracy: 0.5},
	)
	if a := c.AUCRounds(); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.5", a)
	}
	// Linear 0→1 => AUC 0.5; better curve (fast rise) must score higher.
	fast := mkCurve("fast",
		Point{Round: 0, Accuracy: 0},
		Point{Round: 1, Accuracy: 1},
		Point{Round: 10, Accuracy: 1},
	)
	slow := mkCurve("slow",
		Point{Round: 0, Accuracy: 0},
		Point{Round: 10, Accuracy: 1},
	)
	if fast.AUCRounds() <= slow.AUCRounds() {
		t.Fatalf("fast AUC %v must beat slow AUC %v", fast.AUCRounds(), slow.AUCRounds())
	}
	if (&Curve{}).AUCRounds() != 0 {
		t.Fatal("empty AUC must be 0")
	}
}

func TestIsFinite(t *testing.T) {
	good := mkCurve("x", Point{Round: 1, Accuracy: 0.5, Loss: 1})
	if !good.IsFinite() {
		t.Fatal("finite curve reported non-finite")
	}
	bad := mkCurve("x", Point{Round: 1, Accuracy: 0.5, Loss: math.NaN()})
	if bad.IsFinite() {
		t.Fatal("NaN loss not detected")
	}
}
