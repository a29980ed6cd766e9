// Package partition distributes a dataset across clients and clients
// across groups — the "30 clients divided into 6 groups" structure of the
// paper's evaluation.
//
// Data partitioning supports IID splits and Dirichlet non-IID splits
// (the standard way federated-learning papers model heterogeneous client
// data). Grouping supports the strategies the paper's future work asks
// about: round-robin, random, and compute-balanced.
package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gsfl/internal/data"
)

// IID partitions ds uniformly at random into n near-equal subsets.
// Every sample lands in exactly one subset.
func IID(ds data.Dataset, n int, rng *rand.Rand) []*data.Subset {
	if n <= 0 {
		panic(fmt.Sprintf("partition: client count %d must be positive", n))
	}
	if ds.Len() < n {
		panic(fmt.Sprintf("partition: %d samples cannot cover %d clients", ds.Len(), n))
	}
	perm := rng.Perm(ds.Len())
	out := make([]*data.Subset, n)
	for i := 0; i < n; i++ {
		lo := i * len(perm) / n
		hi := (i + 1) * len(perm) / n
		idx := append([]int(nil), perm[lo:hi]...)
		sort.Ints(idx)
		out[i] = data.NewSubset(ds, idx)
	}
	return out
}

// Dirichlet partitions ds across n clients with class proportions drawn
// from Dir(alpha). Small alpha (e.g. 0.1) produces highly skewed non-IID
// clients; large alpha approaches IID. Every sample lands in exactly one
// subset, and every client receives at least one sample (rebalanced from
// the largest client when necessary, so degenerate draws cannot produce
// unusable empty clients).
func Dirichlet(ds data.Dataset, n int, alpha float64, rng *rand.Rand) []*data.Subset {
	if n <= 0 {
		panic(fmt.Sprintf("partition: client count %d must be positive", n))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("partition: Dirichlet alpha %v must be positive", alpha))
	}
	if ds.Len() < n {
		panic(fmt.Sprintf("partition: %d samples cannot cover %d clients", ds.Len(), n))
	}
	// Collect per-class sample indices.
	byClass := make([][]int, ds.Classes())
	for i := 0; i < ds.Len(); i++ {
		_, y := ds.Sample(i)
		byClass[y] = append(byClass[y], i)
	}
	assigned := make([][]int, n)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		// Draw client proportions for this class from Dir(alpha) via
		// normalized Gamma(alpha, 1) samples.
		props := make([]float64, n)
		total := 0.0
		for i := range props {
			props[i] = gammaSample(rng, alpha)
			total += props[i]
		}
		// Convert to cumulative sample counts.
		pos := 0
		cum := 0.0
		for ci := 0; ci < n; ci++ {
			cum += props[ci] / total
			end := int(float64(cum*float64(len(idxs))) + 0.5)
			if ci == n-1 {
				end = len(idxs)
			}
			if end > len(idxs) {
				end = len(idxs)
			}
			assigned[ci] = append(assigned[ci], idxs[pos:end]...)
			pos = end
		}
	}
	rebalanceEmpty(assigned, rng)
	out := make([]*data.Subset, n)
	for i, idx := range assigned {
		sort.Ints(idx)
		out[i] = data.NewSubset(ds, idx)
	}
	return out
}

// rebalanceEmpty moves one sample from the largest client to each empty
// client so every client can train.
func rebalanceEmpty(assigned [][]int, rng *rand.Rand) {
	for ci := range assigned {
		if len(assigned[ci]) > 0 {
			continue
		}
		// Find the largest donor.
		donor := -1
		for di := range assigned {
			if donor == -1 || len(assigned[di]) > len(assigned[donor]) {
				donor = di
			}
		}
		if donor == -1 || len(assigned[donor]) < 2 {
			panic("partition: cannot rebalance, dataset too small")
		}
		take := rng.Intn(len(assigned[donor]))
		assigned[ci] = append(assigned[ci], assigned[donor][take])
		assigned[donor] = append(assigned[donor][:take], assigned[donor][take+1:]...)
	}
}

// gammaSample draws from Gamma(alpha, 1) using Marsaglia-Tsang, with the
// standard boost for alpha < 1.
func gammaSample(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
