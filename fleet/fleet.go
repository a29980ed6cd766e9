// Package fleet is the distributed control plane of the sweep engine:
// a coordinator that owns a sweep.Store and leases grid jobs to
// pull-based workers over the transport layer's length-prefixed binary
// framing (internal/transport's fleet frames).
//
// The design keeps the sweep engine's determinism contract (gsfl/sweep)
// across process and machine boundaries:
//
//   - Jobs are content-hash addressed. A worker validates every job it
//     receives by rehashing; the coordinator records results keyed by
//     the same IDs, so overlapping grids and rejoining workers
//     deduplicate exactly like the in-process Scheduler.
//
//   - Every job is bit-identical for any worker count (the parallel
//     engine's schedule-independence), and all cross-process payloads
//     round-trip float64 values exactly (binary f64 on the frame
//     layer, Go's shortest-representation encoding in JSON bodies), so
//     the compacted store bytes depend only on the grid — not on how
//     many workers ran, where they ran, or which of them died.
//
//   - A lease lives exactly as long as its connection. A worker that
//     drops (crash, kill -9) or falls silent for the lease TTL (hang,
//     partition: the coordinator's read or reply deadline fires) loses
//     its connection, and its job is reassigned; its uploaded
//     checkpoints — each the job's whole resumable state, latency sums
//     included — let the next worker resume mid-job bit-identically
//     (the same resume-soundness rule as the Scheduler: the
//     checkpoint's header must name the job's scheme and a round still
//     to run, else the slot before it is taken, or the job reruns from
//     scratch — never wrong, only slower). The coordinator reads only
//     that header; the grant carries the checkpoint bytes the store read
//     from its slot, and the worker decodes them in memory: a worker
//     writes no file. A message counts only while the connection it
//     arrives on holds the lease it names. That fence is sufficient
//     because a connection is strictly request/response and a worker
//     quiesces its heartbeat goroutine before asking for the next lease,
//     so no message about an earlier grant can trail a later grant to
//     the same connection.
//
// Protocol (worker-initiated; every frame but a heartbeat is answered):
//
//	worker                          coordinator
//	  |---- hello ------------------->|  register
//	  |<--- welcome ------------------|  fingerprint, cadences
//	  |---- lease request ----------->|  parks while every job is leased
//	  |<--- grant / drain ------------|  job (+ checkpoint handoff)
//	  |---- progress (ckpt upload) -->|  persist
//	  |<--- ack (lease valid?) -------|
//	  |---- heartbeat --------------->|  keepalive, unanswered
//	  |---- result ------------------>|  record, mark done
//	  |<--- ack ----------------------|
//
// cmd/gsfl-sweep exposes this as -serve (coordinator) and -worker
// modes; the single-process path is untouched.
package fleet

import (
	"fmt"
	"time"

	"gsfl/sweep"
)

// DefaultLeaseTTL is how long the coordinator waits for a worker's next
// frame, or for a reply to reach it, before it ends the connection and
// releases its lease.
const DefaultLeaseTTL = 15 * time.Second

// EventKind labels a coordinator progress event.
type EventKind int

const (
	// WorkerJoined fires when a worker completes its hello handshake.
	WorkerJoined EventKind = iota
	// WorkerLeft fires when a worker's connection closes.
	WorkerLeft
	// JobLeased fires when a job is granted to a worker; Round carries
	// the handoff round (0 = fresh start).
	JobLeased
	// JobProgressed fires when a worker's checkpoint upload is persisted.
	JobProgressed
	// JobReassigned fires when its holder's connection ends (a drop, or
	// silence past the lease TTL) and the job returns to the pending pool.
	JobReassigned
	// JobRecorded fires when a job's result lands in the store.
	JobRecorded
	// JobFailed fires when a worker reports a job error, or the store
	// cannot take a checkpoint it uploaded (the sweep aborts, mirroring
	// the Scheduler's first-error semantics).
	JobFailed
	// SweepCompleted fires once, after the final result is recorded and
	// the store compacted.
	SweepCompleted
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case WorkerJoined:
		return "worker-joined"
	case WorkerLeft:
		return "worker-left"
	case JobLeased:
		return "leased"
	case JobProgressed:
		return "progressed"
	case JobReassigned:
		return "reassigned"
	case JobRecorded:
		return "recorded"
	case JobFailed:
		return "failed"
	case SweepCompleted:
		return "completed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one progress report from a running coordinator. Events are
// emitted synchronously inside the message handler, before the ack
// frame is written back — so by the time a worker sees its ack, every
// observer has seen the event. (The kill-and-rejoin tests depend on
// this ordering to land a SIGKILL deterministically mid-job.)
type Event struct {
	Kind   EventKind
	Worker string
	Job    sweep.Job
	// Round is the handoff round (JobLeased) or the round just
	// checkpointed (JobProgressed).
	Round int
	// Done/Total track sweep completion (unique jobs).
	Done, Total int
	// Err is set on JobFailed.
	Err error
}

// Observer receives coordinator events. Calls are serialized under the
// coordinator's lock but may originate from any connection goroutine.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }
