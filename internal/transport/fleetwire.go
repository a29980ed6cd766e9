package transport

// This file defines the fleet job plane's wire format — the frames a
// sweep coordinator and its pull-based workers exchange (gsfl/fleet) —
// layered on the same length-prefixed binary framing as the tensor
// frames above. The protocol is always worker-initiated, and every
// frame but a heartbeat is answered:
//
//	hello     worker -> coord   registration (role=worker)
//	hello     coord  -> worker  welcome: grid fingerprint, lease/ckpt config
//	lease     worker -> coord   empty payload: "give me a job"
//	lease     coord  -> worker  grant (job + optional checkpoint handoff)
//	                            or drain (sweep over; disconnect). While
//	                            every job is leased the request parks at
//	                            the coordinator and is answered when one
//	                            frees up or the sweep ends.
//	progress  worker -> coord   checkpoint upload at a round boundary
//	result    worker -> coord   completed (or failed) job
//	heartbeat worker -> coord   keepalive between checkpoints; unanswered
//	heartbeat coord  -> worker  ack for progress/result; the OK flag is
//	                            the lease-validity signal
//
// Frame payloads (str := u32 len | bytes; blob := u32 len | bytes):
//
//	fleetHello(worker) := u32 magic | u16 fleetVersion | u8 role=0 |
//	                      str worker | u64 pid
//	fleetHello(coord)  := u32 magic | u16 fleetVersion | u8 role=1 |
//	                      u64 fingerprint | u32 jobs |
//	                      u32 leaseMillis | u32 ckptEvery
//	lease(request)     := (empty)
//	lease(reply)       := u8 status | status=grant(1): str jobID | blob job |
//	                      blob ckpt
//	                    | status=drain(3): (nothing)
//	progress           := str jobID | u32 round | f64 hostSeconds | blob ckpt
//	result             := str jobID | u8 failed | f64 hostSeconds | blob body
//	heartbeat(worker)  := u8 role=0 | str jobID | u32 round
//	heartbeat(coord)   := u8 role=1 | u8 flags (bit0 = lease valid): an ack
//
// Job and result bodies are JSON (Go's float64 encoding round-trips
// exactly, so the determinism contract survives the wire); checkpoint
// blobs are the sim checkpoints verbatim, each a job's whole resumable
// state. Version 4 dropped the progress sidecar blob that versions 1–3
// carried beside the checkpoint in grants and uploads. Every decoder
// validates claimed lengths against the remaining payload before
// allocating, exactly like the tensor decoders, and every fleet frame
// is seeded into FuzzDecodeFrame.
//
// A checkpoint blob is always its frame's last field, so it crosses
// without a user-space copy where it can: WriteProgress and WriteLease
// send it from the caller's buffer as the frame's writev tail, and
// DecodeFleetProgress returns it as a view into the frame payload,
// which the coordinator writes into the store before it reads the next
// frame. A lease grant is decoded into copies: a worker
// holds its handoff across later reads.

import (
	"fmt"
	"net"
)

// Fleet frame kinds, continuing the numbering after the tensor frames
// (a gap is left so future tensor-plane frames don't collide).
const (
	FrameFleetHello     byte = 16
	FrameFleetLease     byte = 17
	FrameFleetProgress  byte = 18
	FrameFleetResult    byte = 19
	FrameFleetHeartbeat byte = 20
)

// fleetVersion guards coordinator/worker protocol compatibility
// independently of the tensor-plane wireVersion.
const fleetVersion = 4

// Lease reply statuses (2 was version 1's wait reply; it stays unused).
const (
	// LeaseGrant carries a job (and possibly a checkpoint handoff).
	LeaseGrant byte = 1
	// LeaseDrain means the sweep is over; disconnect.
	LeaseDrain byte = 3
)

// Hello roles.
const (
	fleetRoleWorker byte = 0
	fleetRoleCoord  byte = 1
)

// maxFleetNameLen bounds worker names and job IDs on the wire.
const maxFleetNameLen = 1024

// FleetHello is a worker's registration frame.
type FleetHello struct {
	Worker string
	PID    uint64
}

// FleetWelcome is the coordinator's reply: the grid fingerprint (an
// FNV-64a over the unique job IDs, for logs and sanity checks), the
// total unique job count, and the lease/checkpoint cadences every
// worker must follow.
type FleetWelcome struct {
	Fingerprint     uint64
	Jobs            int
	LeaseMillis     int
	CheckpointEvery int
}

// FleetLease is a lease reply. Status is LeaseGrant or LeaseDrain; the
// job fields are set only on a grant. Ckpt carries a checkpoint handoff
// (empty for a fresh job): the sim checkpoint of a previous partial
// execution, which the worker resumes bit-identically.
type FleetLease struct {
	Status byte
	JobID  string
	Job    []byte
	Ckpt   []byte
}

// FleetProgress is a worker's checkpoint upload after a round boundary:
// the sim checkpoint bytes, which the coordinator persists into the
// store so the job survives both worker and coordinator kills. Decoded,
// Ckpt is a view into the frame payload, valid until the connection's
// next ReadFrame.
type FleetProgress struct {
	JobID       string
	Round       int
	HostSeconds float64
	Ckpt        []byte
}

// FleetResult reports a finished job: the result parts JSON on success,
// or an error string when Failed.
type FleetResult struct {
	JobID       string
	Failed      bool
	HostSeconds float64
	Body        []byte
}

// FleetHeartbeat is a worker's keepalive. It is not answered: reading
// it is what keeps the connection, and so the lease, alive.
type FleetHeartbeat struct {
	JobID string
	Round int
}

// FleetAck is the coordinator's reply to progress and result frames. OK
// reports that the worker still holds the lease (respectively, that the
// result was accepted); on false the worker must abandon the job and
// request a new lease.
type FleetAck struct {
	OK bool
}

// --- message codecs -----------------------------------------------------

func decodeFleetRole(d *wireDec, want byte, what string) bool {
	if magic := d.U32(); d.Err() == nil && magic != wireMagic {
		d.Fail("bad fleet hello magic %#x", magic)
	}
	if v := d.U16(); d.Err() == nil && v != fleetVersion {
		d.Fail("fleet protocol version %d, want %d", v, fleetVersion)
	}
	if role := d.U8(); d.Err() == nil && role != want {
		d.Fail("fleet hello role %d is not a %s", role, what)
	}
	return d.Err() == nil
}

// DecodeFleetHello decodes a worker registration frame.
func DecodeFleetHello(p []byte) (FleetHello, error) {
	d := newWireDec(p)
	if !decodeFleetRole(&d, fleetRoleWorker, "worker hello") {
		return FleetHello{}, d.Err()
	}
	h := FleetHello{Worker: d.Str(maxFleetNameLen), PID: d.U64()}
	if err := d.Finish(); err != nil {
		return FleetHello{}, err
	}
	if h.Worker == "" {
		return FleetHello{}, fmt.Errorf("transport: fleet hello with empty worker name")
	}
	return h, nil
}

// DecodeFleetWelcome decodes a coordinator welcome frame.
func DecodeFleetWelcome(p []byte) (FleetWelcome, error) {
	d := newWireDec(p)
	if !decodeFleetRole(&d, fleetRoleCoord, "coordinator welcome") {
		return FleetWelcome{}, d.Err()
	}
	w := FleetWelcome{
		Fingerprint:     d.U64(),
		Jobs:            int(d.U32()),
		LeaseMillis:     int(d.U32()),
		CheckpointEvery: int(d.U32()),
	}
	if err := d.Finish(); err != nil {
		return FleetWelcome{}, err
	}
	if w.LeaseMillis <= 0 {
		return FleetWelcome{}, fmt.Errorf("transport: fleet welcome with non-positive lease %dms", w.LeaseMillis)
	}
	return w, nil
}

// DecodeFleetLease decodes a lease frame. An empty payload is the
// worker's request; otherwise it is the coordinator's reply.
func DecodeFleetLease(p []byte) (FleetLease, error) {
	if len(p) == 0 {
		return FleetLease{}, nil // request
	}
	d := newWireDec(p)
	l := FleetLease{Status: d.U8()}
	switch l.Status {
	case LeaseGrant:
		l.JobID = d.Str(maxFleetNameLen)
		l.Job = d.Blob()
		l.Ckpt = d.Blob()
	case LeaseDrain:
	default:
		d.Fail("unknown lease status %d", l.Status)
	}
	if err := d.Finish(); err != nil {
		return FleetLease{}, err
	}
	if l.Status == LeaseGrant {
		if l.JobID == "" {
			return FleetLease{}, fmt.Errorf("transport: lease grant with empty job id")
		}
		if len(l.Job) == 0 {
			return FleetLease{}, fmt.Errorf("transport: lease grant with empty job body")
		}
	}
	return l, nil
}

// DecodeFleetProgress decodes a checkpoint-upload frame. Ckpt aliases p
// (no copy, whatever the checkpoint's size); the caller must be done
// with it before p's buffer is reused.
func DecodeFleetProgress(p []byte) (FleetProgress, error) {
	d := newWireDec(p)
	m := FleetProgress{JobID: d.Str(maxFleetNameLen), Round: int(d.U32()), HostSeconds: d.F64()}
	m.Ckpt = d.View()
	if err := d.Finish(); err != nil {
		return FleetProgress{}, err
	}
	if m.JobID == "" {
		return FleetProgress{}, fmt.Errorf("transport: progress frame with empty job id")
	}
	if m.Round <= 0 {
		return FleetProgress{}, fmt.Errorf("transport: progress frame at round %d", m.Round)
	}
	return m, nil
}

// DecodeFleetResult decodes a job-completion frame.
func DecodeFleetResult(p []byte) (FleetResult, error) {
	d := newWireDec(p)
	m := FleetResult{JobID: d.Str(maxFleetNameLen)}
	switch f := d.U8(); f {
	case 0:
	case 1:
		m.Failed = true
	default:
		d.Fail("result frame failure flag %d", f)
	}
	m.HostSeconds = d.F64()
	m.Body = d.Blob()
	if err := d.Finish(); err != nil {
		return FleetResult{}, err
	}
	if m.JobID == "" {
		return FleetResult{}, fmt.Errorf("transport: result frame with empty job id")
	}
	return m, nil
}

// DecodeFleetHeartbeat decodes a worker keepalive frame.
func DecodeFleetHeartbeat(p []byte) (FleetHeartbeat, error) {
	d := newWireDec(p)
	if role := d.U8(); d.Err() == nil && role != fleetRoleWorker {
		d.Fail("heartbeat role %d is not a worker keepalive", role)
	}
	m := FleetHeartbeat{JobID: d.Str(maxFleetNameLen), Round: int(d.U32())}
	if err := d.Finish(); err != nil {
		return FleetHeartbeat{}, err
	}
	if m.JobID == "" {
		return FleetHeartbeat{}, fmt.Errorf("transport: heartbeat with empty job id")
	}
	return m, nil
}

// DecodeFleetAck decodes a coordinator ack (heartbeat kind, role=coord).
func DecodeFleetAck(p []byte) (FleetAck, error) {
	d := newWireDec(p)
	if role := d.U8(); d.Err() == nil && role != fleetRoleCoord {
		d.Fail("heartbeat role %d is not a coordinator ack", role)
	}
	flags := d.U8()
	if err := d.Finish(); err != nil {
		return FleetAck{}, err
	}
	return FleetAck{OK: flags&1 != 0}, nil
}

// decodeFleetHeartbeatAny dispatches a heartbeat-kind payload by role —
// the fuzz entry point for both directions.
func decodeFleetHeartbeatAny(p []byte) error {
	if len(p) > 0 && p[0] == fleetRoleCoord {
		_, err := DecodeFleetAck(p)
		return err
	}
	_, err := DecodeFleetHeartbeat(p)
	return err
}

// decodeFleetHelloAny dispatches a hello-kind payload by role.
func decodeFleetHelloAny(p []byte) error {
	// The role byte sits after the u32 magic and u16 version.
	if len(p) > 6 && p[6] == fleetRoleCoord {
		_, err := DecodeFleetWelcome(p)
		return err
	}
	_, err := DecodeFleetHello(p)
	return err
}

// decodeFleetFrame dispatches a fleet payload through its kind's
// decoder, discarding the result — the fuzz surface for the job plane,
// exercising exactly what the coordinator and workers run on untrusted
// input.
func decodeFleetFrame(kind byte, p []byte) error {
	switch kind {
	case FrameFleetHello:
		return decodeFleetHelloAny(p)
	case FrameFleetLease:
		_, err := DecodeFleetLease(p)
		return err
	case FrameFleetProgress:
		_, err := DecodeFleetProgress(p)
		return err
	case FrameFleetResult:
		_, err := DecodeFleetResult(p)
		return err
	case FrameFleetHeartbeat:
		return decodeFleetHeartbeatAny(p)
	default:
		return fmt.Errorf("transport: unknown fleet frame kind %d", kind)
	}
}

// --- FleetConn ----------------------------------------------------------

// FleetConn frames one coordinator/worker connection. It is the tensor
// plane's frameConn — one reused buffer in each direction, a
// checkpoint sent as a borrowed writev tail, strictly request/response
// — with the frame kinds and the codec surface exported, because the
// job plane lives in gsfl/fleet rather than in this package.
type FleetConn struct {
	fc *frameConn
}

// NewFleetConn frames c with the given payload cap (<= 0 uses
// DefaultMaxFrameBytes — checkpoint handoffs carry whole model states,
// so the cap stays generous).
func NewFleetConn(c net.Conn, maxFrame int) *FleetConn {
	return &FleetConn{fc: newFrameConn(c, maxFrame)}
}

// ReadFrame returns the next frame's kind and payload. The payload is
// valid until the next ReadFrame call, and so is the checkpoint
// DecodeFleetProgress returns; the other Decode* functions copy theirs.
func (f *FleetConn) ReadFrame() (byte, []byte, error) { return f.fc.readFrame() }

// WriteHello sends a worker registration.
func (f *FleetConn) WriteHello(h FleetHello) error {
	e := &f.fc.enc
	e.begin(FrameFleetHello)
	e.U32(wireMagic)
	e.U16(fleetVersion)
	e.U8(fleetRoleWorker)
	e.Str(h.Worker)
	e.U64(h.PID)
	return f.fc.flush()
}

// WriteWelcome sends the coordinator's hello reply.
func (f *FleetConn) WriteWelcome(w FleetWelcome) error {
	e := &f.fc.enc
	e.begin(FrameFleetHello)
	e.U32(wireMagic)
	e.U16(fleetVersion)
	e.U8(fleetRoleCoord)
	e.U64(w.Fingerprint)
	e.U32(uint32(w.Jobs))
	e.U32(uint32(w.LeaseMillis))
	e.U32(uint32(w.CheckpointEvery))
	return f.fc.flush()
}

// WriteLeaseRequest sends the worker's empty-payload job request.
func (f *FleetConn) WriteLeaseRequest() error {
	f.fc.enc.begin(FrameFleetLease)
	return f.fc.flush()
}

// WriteLease sends a lease reply. A grant's handoff checkpoint goes out
// from l.Ckpt itself, read only during the call.
func (f *FleetConn) WriteLease(l FleetLease) error {
	e := &f.fc.enc
	e.begin(FrameFleetLease)
	e.U8(l.Status)
	if l.Status != LeaseGrant {
		return f.fc.flush()
	}
	e.Str(l.JobID)
	e.Blob(l.Job)
	e.U32(uint32(len(l.Ckpt)))
	return f.fc.flushTail(l.Ckpt)
}

// WriteProgress sends a checkpoint upload. The checkpoint goes out from
// m.Ckpt itself, read only during the call.
func (f *FleetConn) WriteProgress(m FleetProgress) error {
	e := &f.fc.enc
	e.begin(FrameFleetProgress)
	e.Str(m.JobID)
	e.U32(uint32(m.Round))
	e.F64(m.HostSeconds)
	e.U32(uint32(len(m.Ckpt)))
	return f.fc.flushTail(m.Ckpt)
}

// WriteResult sends a job completion.
func (f *FleetConn) WriteResult(m FleetResult) error {
	e := &f.fc.enc
	e.begin(FrameFleetResult)
	e.Str(m.JobID)
	if m.Failed {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.F64(m.HostSeconds)
	e.Blob(m.Body)
	return f.fc.flush()
}

// WriteHeartbeat sends a worker keepalive.
func (f *FleetConn) WriteHeartbeat(m FleetHeartbeat) error {
	e := &f.fc.enc
	e.begin(FrameFleetHeartbeat)
	e.U8(fleetRoleWorker)
	e.Str(m.JobID)
	e.U32(uint32(m.Round))
	return f.fc.flush()
}

// WriteAck sends a coordinator ack.
func (f *FleetConn) WriteAck(a FleetAck) error {
	e := &f.fc.enc
	e.begin(FrameFleetHeartbeat)
	e.U8(fleetRoleCoord)
	var flags byte
	if a.OK {
		flags |= 1
	}
	e.U8(flags)
	return f.fc.flush()
}
