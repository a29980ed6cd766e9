package pop

import (
	"math"

	"gsfl/internal/registry"
)

// Trace models one member's availability process: whether it starts
// online and how long each online/offline dwell lasts, in round units.
// Implementations must be stateless and deterministic — every call's
// randomness arrives through u ∈ [0,1), drawn by the population from
// its counter-based stream, so a trace never holds an RNG of its own.
// That statelessness is what lets a resumed run replay the exact
// availability history from the spec alone, with nothing serialized.
type Trace interface {
	// Name is the registry key.
	Name() string
	// InitialOnline decides the member's state at time zero.
	InitialOnline(u float64) bool
	// NextDuration returns how long the member dwells in the state it
	// just entered (online=true means it just came online). cursor is
	// the member's toggle count — 0 for the initial dwell — which lets
	// periodic traces randomize only the first dwell to spread phases.
	// Return +Inf for "forever" (no further toggles).
	NextDuration(online bool, cursor uint32, u float64) float64
}

var traces = registry.New[Trace]("pop", "availability trace")

// RegisterTrace adds an availability trace to the registry under its
// Name. It panics on an empty name or a duplicate registration —
// programmer errors at init time, matching the env registries.
func RegisterTrace(t Trace) { traces.Register(t.Name(), t) }

// Traces returns the registered trace names, sorted.
func Traces() []string { return traces.Names() }

// TraceByName resolves a registered trace.
func TraceByName(name string) (Trace, error) { return traces.Get(name) }

// DefaultTrace is the trace a population spec gets when none is named:
// every member online forever, which is exactly the classic
// fixed-client world.
const DefaultTrace = "always-on"

// alwaysOn keeps every member online forever.
type alwaysOn struct{}

func (alwaysOn) Name() string                               { return DefaultTrace }
func (alwaysOn) InitialOnline(float64) bool                 { return true }
func (alwaysOn) NextDuration(bool, uint32, float64) float64 { return math.Inf(1) }

// onoff is a memoryless churn process: exponentially distributed dwell
// times with mean 16 rounds online and 8 rounds offline (two-thirds
// steady-state availability), the standard cross-device assumption that
// devices come and go independently.
type onoff struct{}

func (onoff) Name() string { return "onoff" }

func (onoff) InitialOnline(u float64) bool { return u < 16.0/24.0 }

func (onoff) NextDuration(online bool, _ uint32, u float64) float64 {
	mean := 8.0
	if online {
		mean = 16.0
	}
	return -mean * math.Log1p(-u)
}

// diurnal is a day/night cycle: 16 rounds reachable, 8 rounds dark,
// with each member's phase randomized by its initial dwell so the
// population doesn't toggle in lockstep. It models the charging/idle
// windows cross-device FL actually trains in.
type diurnal struct{}

func (diurnal) Name() string { return "diurnal" }

func (diurnal) InitialOnline(u float64) bool { return u < 16.0/24.0 }

func (diurnal) NextDuration(online bool, cursor uint32, u float64) float64 {
	dwell := 8.0
	if online {
		dwell = 16.0
	}
	if cursor == 0 {
		// Uniform position inside the current window spreads phases.
		return u * dwell
	}
	return dwell
}

func init() {
	RegisterTrace(alwaysOn{})
	RegisterTrace(onoff{})
	RegisterTrace(diurnal{})
}
