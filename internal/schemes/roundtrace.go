package schemes

import (
	"strconv"

	"gsfl/internal/simnet"
)

// TraceLane is one lane of a round's trace: a chain its ledger charged,
// drawn At seconds after the round's start. Turns holds the index of
// each client turn's first task; a turn's "client <id>" slot wraps its
// tasks up to the next turn's first, or to the chain's end.
type TraceLane struct {
	Name  string
	At    float64
	Chain []simnet.Task
	Turns []int
}

// TraceRound draws a priced round on the env's tracer (which must be
// set) in the virtual clock: each lane's tasks as phase spans of their
// Charged seconds, in charge order, from the clock's current position
// plus the lane's At; then the round's critical-path span, led.Total(),
// on the scheme's "rounds" lane, advancing the clock past it. Lanes
// persist across rounds (same name, new cursor), so a group's timeline
// reads continuously in the viewer.
func (e *Env) TraceRound(scheme string, round int, lanes []TraceLane, led *simnet.Ledger) {
	start := e.Trace.Now()
	for _, l := range lanes {
		tk := e.Trace.Lane(scheme, l.Name)
		tk.Seek(start + l.At)
		turns := l.Turns
		for i, task := range l.Chain {
			if len(turns) > 0 && turns[0] == i {
				tk.End() // the previous turn's slot; a no-op before the first
				tk.Begin("client "+strconv.Itoa(task.Client), "slot")
				turns = turns[1:]
			}
			tk.Span(task.Component.String(), "phase", task.Charged)
		}
		tk.End()
	}
	rounds := e.Trace.Lane(scheme, "rounds")
	rounds.Seek(start)
	rounds.Span("round "+strconv.Itoa(round), "round", led.Total())
	e.Trace.Advance(led.Total())
}
