// Package simnet provides the deterministic virtual-clock accounting the
// latency evaluation runs on.
//
// A round is described once, as chains of Tasks — one chain per parallel
// lane, each task carrying the seconds it was charged — and priced from
// them. The paper's delay numbers sum compute and transfer times along
// the critical path: sequential stages add, parallel stages take the max.
// Fold is that rule; its Ledger holds the round's seconds per component
// (client compute, uplink, downlink, server compute, model relay,
// aggregation), which yields both the Fig. 2(b) curves and the
// latency-breakdown table. RunChains replays the same chains event by
// event under processor sharing. No real time passes; everything is
// replayable and exact.
package simnet

import "fmt"

// Component labels one contributor to round latency.
type Component int

const (
	// ClientCompute is client-side forward+backward time.
	ClientCompute Component = iota
	// Uplink is smashed-data / model upload time.
	Uplink
	// ServerCompute is server-side forward+backward time.
	ServerCompute
	// Downlink is gradient / model download time.
	Downlink
	// Relay is client-model hand-off between consecutive clients.
	Relay
	// Aggregation is FedAvg time at the AP.
	Aggregation
	numComponents
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case ClientCompute:
		return "client-compute"
	case Uplink:
		return "uplink"
	case ServerCompute:
		return "server-compute"
	case Downlink:
		return "downlink"
	case Relay:
		return "relay"
	case Aggregation:
		return "aggregation"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Components lists all components in display order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Ledger accumulates virtual seconds per component. The zero value is an
// empty ledger ready to use.
type Ledger struct {
	seconds [numComponents]float64
}

// Add records dt seconds against component c. Negative durations panic:
// time never runs backward in the simulation.
func (l *Ledger) Add(c Component, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simnet: negative duration %v for %v", dt, c))
	}
	if c < 0 || c >= numComponents {
		panic(fmt.Sprintf("simnet: unknown component %d", int(c)))
	}
	l.seconds[c] += dt
}

// Get returns the accumulated seconds for component c.
func (l *Ledger) Get(c Component) float64 {
	if c < 0 || c >= numComponents {
		panic(fmt.Sprintf("simnet: unknown component %d", int(c)))
	}
	return l.seconds[c]
}

// Total returns the sum over all components.
func (l *Ledger) Total() float64 {
	t := 0.0
	for _, s := range l.seconds {
		t += s
	}
	return t
}

// Merge adds every component of other into l (sequential composition).
func (l *Ledger) Merge(other *Ledger) {
	for i := range l.seconds {
		l.seconds[i] += other.seconds[i]
	}
}

// Fold is the analytic price of parallel chains: each chain's Charged
// seconds summed per component in charge order (sequential stages add),
// then the chain with the largest total, the critical path (parallel
// stages take the max); the first of equal totals wins. No chains fold
// to the zero ledger.
func Fold(chains ...[]Task) Ledger {
	var best Ledger
	for i, chain := range chains {
		var l Ledger
		for _, task := range chain {
			l.Add(task.Component, task.Charged)
		}
		if i == 0 || l.Total() > best.Total() {
			best = l
		}
	}
	return best
}
