package tensor

import (
	"math"
	"math/rand"
)

// RandNormal fills t with samples from N(mean, std²) drawn from rng and
// returns t. Passing the RNG explicitly keeps every fill deterministic and
// lets concurrent group replicas own independent streams.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = mean + float64(std*rng.NormFloat64())
	}
	return t
}

// HeInit fills t with the He-normal initialization appropriate for layers
// followed by ReLU: N(0, sqrt(2/fanIn)²).
func (t *Tensor) HeInit(rng *rand.Rand, fanIn int) *Tensor {
	if fanIn <= 0 {
		fanIn = 1
	}
	return t.RandNormal(rng, 0, math.Sqrt(2/float64(fanIn)))
}
