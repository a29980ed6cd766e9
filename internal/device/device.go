// Package device models the compute side of the paper's wireless
// network: N resource-limited mobile clients and one well-provisioned
// edge server co-located with the AP.
//
// A Device turns FLOP counts into seconds; the simnet ledger sums those
// seconds into per-round latency. Capacities are heterogeneous (drawn
// from a log-normal spread around a class median), which is what makes
// straggler effects, compute-balanced grouping, and the FL-vs-GSFL
// latency gap realistic.
package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Device is one compute node.
type Device struct {
	// ID is the fleet-wide index (server = -1).
	ID int
	// Name is a human-readable label for traces.
	Name string
	// FLOPS is the sustained compute capacity in FLOP/s.
	FLOPS float64
}

// ComputeSeconds returns the wall-clock seconds to execute the given
// number of floating-point operations.
func (d Device) ComputeSeconds(flops int64) float64 {
	if flops < 0 {
		panic(fmt.Sprintf("device: negative FLOPs %d", flops))
	}
	return float64(flops) / d.FLOPS
}

// Fleet is the full population: one edge server and N clients.
type Fleet struct {
	Server  Device
	Clients []Device
}

// Config controls fleet synthesis.
type Config struct {
	// N is the number of clients.
	N int
	// ClientMedianFLOPS is the median client capacity (defaults represent
	// mobile-class SoCs, ~5 GFLOPS sustained for f64 CNN workloads).
	ClientMedianFLOPS float64
	// ClientSpread is the log-normal sigma of client capacities
	// (0 = homogeneous).
	ClientSpread float64
	// ServerFLOPS is the edge-server capacity (defaults to a GPU-class
	// 100x the client median).
	ServerFLOPS float64
}

// DefaultConfig returns a paper-scale fleet configuration for n clients.
func DefaultConfig(n int) Config {
	return Config{
		N:                 n,
		ClientMedianFLOPS: 5e9,
		ClientSpread:      0.35,
		ServerFLOPS:       5e11,
	}
}

// Validate is the one definition of the config's ranges. Errors lead
// with the field name, so callers can prefix their own path to it. The
// comparisons are written to fail on NaN.
func (cfg Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("N %d must be positive", cfg.N)
	}
	if !(cfg.ClientMedianFLOPS > 0) {
		return fmt.Errorf("ClientMedianFLOPS %v must be positive", cfg.ClientMedianFLOPS)
	}
	if !(cfg.ServerFLOPS > 0) {
		return fmt.Errorf("ServerFLOPS %v must be positive", cfg.ServerFLOPS)
	}
	if !(cfg.ClientSpread >= 0) {
		return fmt.Errorf("ClientSpread %v must be non-negative", cfg.ClientSpread)
	}
	return nil
}

// NewFleet synthesizes a fleet from cfg, deterministic in seed. A config
// that fails Validate is a programmer error and panics; code holding
// outside input validates first.
func NewFleet(cfg Config, seed int64) *Fleet {
	if err := cfg.Validate(); err != nil {
		panic("device: " + err.Error())
	}
	rng := rand.New(rand.NewSource(seed))
	f := &Fleet{
		Server:  Device{ID: -1, Name: "edge-server", FLOPS: cfg.ServerFLOPS},
		Clients: make([]Device, cfg.N),
	}
	for i := range f.Clients {
		factor := math.Exp(rng.NormFloat64() * cfg.ClientSpread)
		f.Clients[i] = Device{
			ID:    i,
			Name:  fmt.Sprintf("client-%02d", i),
			FLOPS: cfg.ClientMedianFLOPS * factor,
		}
	}
	return f
}

// N returns the client count.
func (f *Fleet) N() int { return len(f.Clients) }

// Capacities returns the per-client FLOPS slice (a copy), the input the
// compute-balanced grouping strategy consumes.
func (f *Fleet) Capacities() []float64 {
	out := make([]float64, len(f.Clients))
	for i, c := range f.Clients {
		out[i] = c.FLOPS
	}
	return out
}
