// Package simnet provides the deterministic virtual-clock accounting the
// latency evaluation runs on.
//
// The paper's delay numbers come from summing compute and transfer times
// along each scheme's critical path: sequential stages add, parallel
// stages take the max. A Ledger records those contributions per
// component (client compute, uplink, downlink, server compute, model
// relay, aggregation), which yields both the Fig. 2(b) curves and the
// latency-breakdown table. No real time passes; everything is replayable
// and exact.
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
	// onAdd, when set, observes every Add in order — the execution
	// tracer's tap into the latency model. It never affects the totals;
	// the disabled state is a single nil check on the pricing path.
	onAdd func(Component, float64)
	// chain, when set, receives every charged task in order (Record).
	chain *[]Task
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
	if l.onAdd != nil {
		l.onAdd(c, dt)
	}
}

// Charge records dt, the priced seconds of task, against its component
// (as Add) and appends task to the chain installed by Record.
func (l *Ledger) Charge(task Task, dt float64) {
	l.Add(task.Component, dt)
	if l.chain != nil {
		*l.chain = append(*l.chain, task)
	}
}

// Record empties *chain and makes it the destination of every later
// Charge; the caller owns the slice, so its buffer outlives the ledger.
func (l *Ledger) Record(chain *[]Task) {
	*chain, l.chain = (*chain)[:0], chain
}

// Observe installs fn as the ledger's Add observer (nil detaches). The
// observer sees each (component, dt) in pricing order; it must not
// mutate the ledger.
func (l *Ledger) Observe(fn func(Component, float64)) {
	l.onAdd = fn
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

// MaxOf returns a ledger representing parallel composition: the ledger
// among ls with the largest total (the critical path). Component detail
// of the chosen ledger is preserved so breakdowns stay meaningful; its
// Add observer and chain are NOT inherited (the copy starts a new lane
// in time, so the winner's per-lane taps would misattribute later adds).
// It panics on an empty slice.
func MaxOf(ls []*Ledger) *Ledger {
	if len(ls) == 0 {
		panic("simnet: MaxOf of zero ledgers")
	}
	best := ls[0]
	for _, l := range ls[1:] {
		if l.Total() > best.Total() {
			best = l
		}
	}
	cp := *best
	cp.onAdd, cp.chain = nil, nil
	return &cp
}
