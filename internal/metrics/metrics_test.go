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
