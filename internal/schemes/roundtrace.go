package schemes

import (
	"strconv"

	"gsfl/internal/simnet"
	"gsfl/obs"
)

// RoundTrace adapts one training round onto the execution tracer's
// virtual clock. Each parallel ledger (a group of the split-round
// engine — SL has one, SplitFed N — an FL client, the CL chain) gets
// its own lane starting at the round's
// virtual start time; the ledger's Add observer turns every latency
// contribution into a phase span on that lane, so the trace shows
// exactly what the latency model priced, in pricing order. End emits
// the round's critical-path span and advances the tracer's global
// virtual clock.
//
// A nil *RoundTrace (tracing disabled) is a no-op on every method; the
// schemes' hot paths pay only the nil checks. All formatting happens
// inside the methods, after the nil check, so disabled rounds never
// build span names.
type RoundTrace struct {
	tr     *obs.Tracer
	scheme string
	round  int
	start  float64
	lanes  map[*simnet.Ledger]*obs.Track
}

// BeginRoundTrace starts tracing one round for the named scheme.
// Returns nil — the universal no-op — when the env has no tracer.
func (e *Env) BeginRoundTrace(scheme string, round int) *RoundTrace {
	if e.Trace == nil {
		return nil
	}
	return &RoundTrace{
		tr:     e.Trace,
		scheme: scheme,
		round:  round,
		start:  e.Trace.Now(),
		lanes:  make(map[*simnet.Ledger]*obs.Track),
	}
}

func laneName(kind string, id int) string {
	if id < 0 {
		return kind
	}
	return kind + " " + strconv.Itoa(id)
}

// Lane binds led to the lane named "<kind> <id>" ("<kind>" when id is
// negative), positioned at the round's virtual start. Every subsequent
// Add on led becomes a phase span advancing the lane's cursor. Lanes
// persist across rounds (same name, new cursor), so a group's timeline
// reads continuously in the viewer.
func (rt *RoundTrace) Lane(kind string, id int, led *simnet.Ledger) {
	if rt == nil {
		return
	}
	rt.attach(led, rt.start, kind, id)
}

// TailLane binds led to a lane positioned at the ledger's current
// critical-path end rather than the round start — the shape of
// post-parallel stages, like FedAvg aggregation pricing appended to the
// winning group's ledger after simnet.MaxOf.
func (rt *RoundTrace) TailLane(kind string, id int, led *simnet.Ledger) {
	if rt == nil {
		return
	}
	rt.attach(led, rt.start+led.Total(), kind, id)
}

func (rt *RoundTrace) attach(led *simnet.Ledger, at float64, kind string, id int) {
	tk := rt.tr.Lane(rt.scheme, laneName(kind, id))
	tk.Seek(at)
	rt.lanes[led] = tk
	led.Observe(func(c simnet.Component, dt float64) {
		tk.Span(c.String(), "phase", dt)
	})
}

// BeginSlot opens a container span "<kind> <id>" on led's lane — a
// client slot wrapping the phase spans its turn prices. Close with
// EndSlot.
func (rt *RoundTrace) BeginSlot(led *simnet.Ledger, kind string, id int) {
	if rt == nil {
		return
	}
	rt.lanes[led].Begin(laneName(kind, id), "slot")
}

// EndSlot closes the innermost BeginSlot on led's lane.
func (rt *RoundTrace) EndSlot(led *simnet.Ledger) {
	if rt == nil {
		return
	}
	rt.lanes[led].End()
}

// End detaches every lane, emits the round's critical-path span on the
// scheme's "rounds" lane, and advances the tracer's virtual clock by
// the round ledger's total. Call it with the ledger the Round method
// returns; a nil ledger (a no-op round) emits nothing but still keeps
// the clock consistent.
func (rt *RoundTrace) End(round *simnet.Ledger) {
	if rt == nil {
		return
	}
	for led := range rt.lanes {
		led.Observe(nil)
	}
	if round == nil {
		return
	}
	rounds := rt.tr.Lane(rt.scheme, "rounds")
	rounds.Seek(rt.start)
	rounds.Span("round "+strconv.Itoa(rt.round), "round", round.Total())
	rt.tr.Advance(round.Total())
}
