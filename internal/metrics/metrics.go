// Package metrics tracks training curves and derives the summary
// statistics the paper reports: accuracy-vs-round curves (Fig. 2a),
// accuracy-vs-latency curves (Fig. 2b), and rounds/latency-to-target
// convergence numbers (the "500% faster than FL" and "31.45% less delay
// than SL" headlines).
package metrics

import (
	"fmt"
	"math"
)

// Point is one evaluation on a training curve.
type Point struct {
	// Round is the 1-based training round after which the evaluation ran.
	Round int
	// LatencySeconds is cumulative virtual training time at that round.
	LatencySeconds float64
	// Loss is the evaluation loss.
	Loss float64
	// Accuracy is the evaluation accuracy in [0,1].
	Accuracy float64
}

// Curve is a training trajectory for one scheme.
type Curve struct {
	// Scheme names the producer ("gsfl", "sl", "fl", "cl", "sfl").
	Scheme string
	Points []Point
}

// Append adds an evaluation point; rounds must be strictly increasing.
func (c *Curve) Append(p Point) {
	if n := len(c.Points); n > 0 {
		last := c.Points[n-1]
		if p.Round <= last.Round {
			panic(fmt.Sprintf("metrics: non-increasing round %d after %d", p.Round, last.Round))
		}
		if p.LatencySeconds < last.LatencySeconds {
			panic(fmt.Sprintf("metrics: latency moved backward (%v after %v)", p.LatencySeconds, last.LatencySeconds))
		}
	}
	c.Points = append(c.Points, p)
}

// FinalAccuracy returns the last point's accuracy (0 for empty curves).
func (c *Curve) FinalAccuracy() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Accuracy
}

// BestAccuracy returns the maximum accuracy on the curve.
func (c *Curve) BestAccuracy() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	return best
}

// RoundsToAccuracy returns the first round at which the curve reaches
// target accuracy, or (0, false) if it never does.
func (c *Curve) RoundsToAccuracy(target float64) (int, bool) {
	for _, p := range c.Points {
		if p.Accuracy >= target {
			return p.Round, true
		}
	}
	return 0, false
}

// LatencyToAccuracy returns the cumulative latency at which the curve
// first reaches target accuracy, or (0, false) if it never does.
func (c *Curve) LatencyToAccuracy(target float64) (float64, bool) {
	for _, p := range c.Points {
		if p.Accuracy >= target {
			return p.LatencySeconds, true
		}
	}
	return 0, false
}

// SpeedupVsRounds returns how many times fewer rounds c needs than other
// to reach target (e.g. 5.0 = "500% improvement in convergence speed").
// ok is false when either curve never reaches the target.
func SpeedupVsRounds(c, other *Curve, target float64) (speedup float64, ok bool) {
	rc, ok1 := c.RoundsToAccuracy(target)
	ro, ok2 := other.RoundsToAccuracy(target)
	if !ok1 || !ok2 || rc == 0 {
		return 0, false
	}
	return float64(ro) / float64(rc), true
}

// DelayReduction returns the fractional latency saving of c versus other
// at the target accuracy (e.g. 0.3145 = "reduces the delay by 31.45%").
func DelayReduction(c, other *Curve, target float64) (reduction float64, ok bool) {
	lc, ok1 := c.LatencyToAccuracy(target)
	lo, ok2 := other.LatencyToAccuracy(target)
	if !ok1 || !ok2 || lo == 0 {
		return 0, false
	}
	return (lo - lc) / lo, true
}

// IsFinite reports whether every numeric field of every point is finite;
// guards trace output against NaN divergence.
func (c *Curve) IsFinite() bool {
	for _, p := range c.Points {
		if math.IsNaN(p.Loss) || math.IsInf(p.Loss, 0) ||
			math.IsNaN(p.Accuracy) || math.IsInf(p.Accuracy, 0) ||
			math.IsNaN(p.LatencySeconds) || math.IsInf(p.LatencySeconds, 0) {
			return false
		}
	}
	return true
}
