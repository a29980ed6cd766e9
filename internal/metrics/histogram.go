package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution metric in the Prometheus
// style: cumulative observation counts per upper bound plus a running
// sum and count. Safe for concurrent use; Observe is lock-free (one
// atomic add per call plus a CAS loop on the sum), cheap enough to sit
// on the transport's per-frame path.
type Histogram struct {
	name, help string
	bounds     []float64 // strictly increasing finite upper bounds
	counts     []atomic.Int64
	sumBits    atomic.Uint64
	count      atomic.Int64
}

// DefSecondsBuckets is the default bucket layout for latency
// histograms: roughly exponential from 100µs to a minute, matched to
// the spread between a loopback frame round-trip and a straggler
// deadline.
var DefSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// DefBytesBuckets is the default bucket layout for frame/message size
// histograms: powers of four from 64 B to 16 MiB (the default frame
// cap).
var DefBytesBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20,
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %s needs at least one bucket", name))
	}
	bounds := append([]float64(nil), buckets...)
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %s bucket %v must be finite (+Inf is implicit)", name, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets must be strictly increasing (%v after %v)", name, b, bounds[i-1]))
		}
	}
	return &Histogram{
		name: name, help: help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1), // +1 = implicit +Inf
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Upper bounds are inclusive (le): the first bound >= v is v's
	// bucket, and i == len(bounds) lands in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts with Prometheus-style linear interpolation inside the target
// bucket (the first bucket interpolates from zero). Observations above
// the last finite bound clamp to that bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= target && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (target - cum) / c
			return lower + (h.bounds[i]-lower)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns the cumulative per-bucket counts (one entry per
// finite bound, plus the +Inf total last) — the exposition-format view,
// also handy for tests.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []int64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}
