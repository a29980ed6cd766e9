// Package obs provides execution tracing for gsfl: spans over the round
// lifecycle (round → group → client-slot → phase), exported as Chrome
// trace_event JSON loadable in chrome://tracing or https://ui.perfetto.dev,
// plus a bounded flight recorder for post-mortem forensics.
//
// Two clocks coexist:
//
//   - The virtual clock prices spans in latency-model seconds — the
//     simulator's currency. Each Track keeps a cursor in virtual
//     seconds; Span/Begin/End advance it as a priced round is drawn.
//   - The wall clock prices spans in host time via BeginWall/End, used
//     by the TCP deployment (internal/transport) and the sweep
//     scheduler, where real elapsed time is the quantity of interest.
//
// A Tracer is a set of Tracks (one horizontal lane each in the trace
// viewer, grouped by process name). Every method on *Tracer and *Track
// is nil-safe: a nil tracer is the disabled state, and the whole API
// degrades to branch-on-nil with zero allocations, so instrumented hot
// paths stay allocation-free when tracing is off. Call sites that would
// compute span names (fmt.Sprintf etc.) should guard on Track.On().
//
// Concurrency: Track creation (Tracer.Lane) and global virtual-clock
// access are mutex-guarded and safe from any goroutine. Span emission
// on a single Track is not synchronized — each Track must be owned by
// one goroutine at a time (the natural shape: one lane per group
// goroutine, per sweep job, per runner).
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Clock names the time base a tracer's spans are priced in. It is
// recorded in the trace file's metadata so a reader knows whether "ts"
// means modelled seconds or host seconds.
type Clock string

const (
	// ClockVirtual prices spans in latency-model seconds (simulator).
	ClockVirtual Clock = "virtual"
	// ClockWall prices spans in host wall-clock seconds (deployment).
	ClockWall Clock = "wall"
)

// Tracer collects spans across a set of tracks and serializes them as
// Chrome trace_event JSON. The zero value is not usable; construct with
// New. A nil *Tracer is the disabled tracer: every method is a no-op.
type Tracer struct {
	mu     sync.Mutex
	clock  Clock
	epoch  time.Time // wall-clock zero point for BeginWall spans
	vnow   float64   // global virtual-clock "now", seconds
	tracks []*Track
	lanes  map[laneKey]*Track
	pids   map[string]int
}

type laneKey struct{ process, thread string }

// New returns an enabled tracer whose spans are priced in the given
// clock. The wall-clock epoch (ts=0) is the moment of the call.
func New(clock Clock) *Tracer {
	return &Tracer{
		clock: clock,
		epoch: time.Now(),
		lanes: make(map[laneKey]*Track),
		pids:  make(map[string]int),
	}
}

// On reports whether the tracer is enabled. Guard any span-name
// computation (fmt.Sprintf and friends) behind it so the disabled path
// stays allocation-free.
func (t *Tracer) On() bool { return t != nil }

// Clock returns the tracer's time base ("" when disabled).
func (t *Tracer) Clock() Clock {
	if t == nil {
		return ""
	}
	return t.clock
}

// Lane returns the track named (process, thread), creating it on first
// use. Tracks with the same process name share a pid group in the
// viewer; the thread name labels the individual lane. Returns nil when
// the tracer is disabled — all Track methods accept a nil receiver.
func (t *Tracer) Lane(process, thread string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := laneKey{process, thread}
	if tk, ok := t.lanes[key]; ok {
		return tk
	}
	pid, ok := t.pids[process]
	if !ok {
		pid = len(t.pids)
		t.pids[process] = pid
	}
	tk := &Track{
		tr:      t,
		process: process,
		thread:  thread,
		pid:     pid,
		tid:     len(t.tracks),
	}
	t.tracks = append(t.tracks, tk)
	t.lanes[key] = tk
	return tk
}

// Now returns the global virtual-clock position in seconds.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vnow
}

// Advance moves the global virtual clock forward by dt seconds and
// returns the new position. The simulator calls it once per round with
// the round's critical-path total.
func (t *Tracer) Advance(dt float64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vnow += dt
	return t.vnow
}

// Since returns seconds elapsed on the wall clock since the tracer's
// epoch (the ts value a wall span starting now would get).
func (t *Tracer) Since(at time.Time) float64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Seconds()
}

// Track is one horizontal lane in the trace. Span emission is owned by
// a single goroutine; all methods are nil-receiver-safe no-ops.
type Track struct {
	tr      *Tracer
	process string
	thread  string
	pid     int
	tid     int
	cursor  float64 // virtual-clock position, seconds
	events  []event
	stack   []openSpan
}

type openSpan struct {
	name  string
	cat   string
	start float64
}

type event struct {
	name string
	cat  string
	ph   byte    // 'X' complete, 'i' instant
	ts   float64 // seconds since epoch (wall) or virtual zero
	dur  float64 // 'X' only
	note string  // optional args.note
}

// On reports whether the track records anything.
func (k *Track) On() bool { return k != nil }

// Seek positions the track's virtual cursor at sec.
func (k *Track) Seek(sec float64) {
	if k == nil {
		return
	}
	k.cursor = sec
}

// Cursor returns the track's virtual cursor (0 when disabled).
func (k *Track) Cursor() float64 {
	if k == nil {
		return 0
	}
	return k.cursor
}

// Span records a complete span of dur seconds at the cursor and
// advances the cursor past it — the shape of sequential virtual-time
// phases (compute, uplink, downlink, …) accruing on a lane.
func (k *Track) Span(name, cat string, dur float64) {
	if k == nil {
		return
	}
	k.events = append(k.events, event{name: name, cat: cat, ph: 'X', ts: k.cursor, dur: dur})
	k.cursor += dur
}

// SpanAt records a complete span at an explicit position without
// touching the cursor.
func (k *Track) SpanAt(name, cat string, start, dur float64) {
	if k == nil {
		return
	}
	k.events = append(k.events, event{name: name, cat: cat, ph: 'X', ts: start, dur: dur})
}

// Begin opens a nested span at the cursor; the matching End closes it
// at the then-current cursor. Used for container spans (a client slot
// wrapping its phases, a round wrapping its groups).
func (k *Track) Begin(name, cat string) {
	if k == nil {
		return
	}
	k.stack = append(k.stack, openSpan{name: name, cat: cat, start: k.cursor})
}

// End closes the innermost Begin. Unbalanced Ends are ignored.
func (k *Track) End() {
	if k == nil || len(k.stack) == 0 {
		return
	}
	sp := k.stack[len(k.stack)-1]
	k.stack = k.stack[:len(k.stack)-1]
	k.events = append(k.events, event{name: sp.name, cat: sp.cat, ph: 'X', ts: sp.start, dur: k.cursor - sp.start})
}

// Instant records a zero-duration marker at the cursor with an optional
// note rendered into the event args.
func (k *Track) Instant(name, cat, note string) {
	if k == nil {
		return
	}
	k.events = append(k.events, event{name: name, cat: cat, ph: 'i', ts: k.cursor, note: note})
}

// WallSpan is an open wall-clock span returned by BeginWall. The zero
// value (from a nil track) is a safe no-op.
type WallSpan struct {
	k     *Track
	name  string
	cat   string
	start time.Time
}

// BeginWall opens a wall-clock span starting now. Close it with End.
func (k *Track) BeginWall(name, cat string) WallSpan {
	if k == nil {
		return WallSpan{}
	}
	return WallSpan{k: k, name: name, cat: cat, start: time.Now()}
}

// End closes the wall-clock span at the current wall time.
func (s WallSpan) End() {
	if s.k == nil {
		return
	}
	s.k.WallSpanAt(s.name, s.cat, s.start, time.Since(s.start))
}

// EndNote closes the span and attaches a note to its args.
func (s WallSpan) EndNote(note string) {
	if s.k == nil {
		return
	}
	d := time.Since(s.start)
	k := s.k
	k.events = append(k.events, event{
		name: s.name, cat: s.cat, ph: 'X',
		ts: k.tr.Since(s.start), dur: d.Seconds(), note: note,
	})
}

// WallSpanAt records a completed wall-clock span that started at start
// and lasted d.
func (k *Track) WallSpanAt(name, cat string, start time.Time, d time.Duration) {
	if k == nil {
		return
	}
	k.events = append(k.events, event{name: name, cat: cat, ph: 'X', ts: k.tr.Since(start), dur: d.Seconds()})
}

// WallInstant records a zero-duration wall-clock marker at the current
// time with an optional note.
func (k *Track) WallInstant(name, cat, note string) {
	if k == nil {
		return
	}
	k.events = append(k.events, event{name: name, cat: cat, ph: 'i', ts: k.tr.Since(time.Now()), note: note})
}

// Labelf formats a span name — a convenience that keeps fmt out of call
// sites' disabled paths: it returns "" on a nil track, and callers pair
// it with On() so the format only runs when tracing is live.
func (k *Track) Labelf(format string, args ...any) string {
	if k == nil {
		return ""
	}
	return fmt.Sprintf(format, args...)
}
