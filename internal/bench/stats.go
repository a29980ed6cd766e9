package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p90 over 60 ops would rest on six samples, and one slow
// round would move it by more than any bound the benchmark fixes.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by linear
// interpolation between order statistics. It refuses — rather than
// reports a number nobody should compare — when fewer than minTail
// samples lie beyond the quantile on its far side.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	far := q
	if far < 0.5 {
		far = 1 - far
	}
	if beyond := int(math.Floor(float64(n)*(1-far) + 1e-9)); beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	return quantile(samples, q), nil
}

// quantile is percentile without the tail rule, for callers that state
// their own sample count beside the number.
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// spread is the interquartile range as a share of the median — the
// run-to-run spread the bounds are judged against.
func spread(values []float64) float64 {
	if len(values) < 4 {
		return 0
	}
	m := median(values)
	if m == 0 {
		return 0
	}
	return (quantile(values, 0.75) - quantile(values, 0.25)) / math.Abs(m)
}

// shareOfParent is the attribution rule: count calls of a child costing
// unit each, as a fraction of one parent op costing parent.
func shareOfParent(count, unit, parent float64) float64 {
	if parent <= 0 {
		return 0
	}
	return count * unit / parent
}

// Verdicts of compareBound.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// setupFloorS: set-up differences below this many seconds never count,
// whatever their ratio — a 30 ms store open is scheduler noise.
const setupFloorS = 0.050

// compareBound judges a metric's values on two sides (a = base, b =
// candidate; lower is better for every end-to-end metric here). The
// candidate is worse when its median exceeds the base's by more than
// bound × base. Where either side's own spread is wider than the bound
// such a difference cannot be told from noise, so it is reported as
// unresolved, not as a regression.
func compareBound(metric string, a, b []float64, bound float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb > 0 {
			return math.Inf(1), verdictWorse
		}
		return 1, verdictOK
	}
	ratio = mb / ma
	switch {
	case metric == "setup_s" && math.Abs(mb-ma) < setupFloorS:
		return ratio, verdictOK
	case ratio <= 1+bound:
		return ratio, verdictOK
	case spread(a) > bound || spread(b) > bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictWorse
}
