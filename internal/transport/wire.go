// Package transport is a real message-passing implementation of the
// GSFL protocol over TCP.
//
// Where internal/gsfl *simulates* the wireless round to price latency,
// this package actually runs it as a distributed system: an AP process
// listens for client connections, orchestrates the M groups concurrently
// (one goroutine per group), executes the server-side halves against
// smashed data arriving over the network, relays client-side models (and
// the group's client-side optimizer state) between clients through the
// AP, and FedAvg-aggregates at round boundaries — the exact Step 1/2/3
// structure of the paper, with real sockets, real serialization, and
// real concurrency instead of a virtual clock.
//
// # Wire format
//
// Every frame is length-prefixed binary, little-endian throughout.
// tensor, tensors and optstate are internal/bincodec's, the vocabulary
// the run checkpoint is written in too; the rest is the wire's own:
//
//	frame    := u32 payloadLen | u8 kind | payload
//	quant    := f64 min | f64 scale | u8 ndim | ndim × u32 dim | n × u8
//	labels   := u32 count | count × u32
//	state    := optstate | tensors (client-half parameters)
//
// Frame payloads by kind:
//
//	hello    := u32 magic | u16 version | u32 clientID | u64 samples | u8 flags
//	train    := u32 steps | state
//	smashed  := u8 enc | (tensor if enc=0 | quant if enc=1) | labels
//	gradient := u8 enc | (tensor if enc=0 | quant if enc=1)
//	return   := state
//	shutdown := (empty)
//
// The layout is deliberate: a train payload minus its leading u32 is
// exactly a return payload, so a protocol-conformant echo client (the
// loadgen's synthetic fleet) can answer a turn without parsing models.
//
// Encoding appends into one reusable buffer per connection and issues a
// single Write per frame (a fleet frame's trailing checkpoint blob goes
// out beside it in the same writev, from the caller's buffer; see
// flushTail); decoding reads into one reusable buffer, and
// every relayed tensor — turn states, smashed activations and their
// labels, gradients — decodes in place into a destination its group or
// client owns and passes again next turn. Steady-state rounds therefore
// run the framing layer allocation-free — the per-message buffer churn
// of the previous gob stream is gone. Every decoder is bincodec's
// hardened cursor, which validates claimed sizes against the actual
// payload length before allocating, so a hostile or corrupt peer can
// make a frame fail, never make the AP over-allocate or panic
// (FuzzDecodeFrame pins this).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"gsfl/internal/bincodec"
	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/quantize"
	"gsfl/internal/tensor"
)

const (
	frameHeaderLen = 5
	wireMagic      = 0x4753464C // "GSFL"
	wireVersion    = 1

	// DefaultMaxFrameBytes caps a single frame's payload unless the
	// config overrides it. Oversize length prefixes are rejected before
	// any allocation.
	DefaultMaxFrameBytes = 256 << 20
)

// Frame kinds. AP -> client: train, gradient, shutdown. Client -> AP:
// hello, smashed, return.
const (
	frameHello    byte = 1
	frameTrain    byte = 2
	frameSmashed  byte = 3
	frameGradient byte = 4
	frameReturn   byte = 5
	frameShutdown byte = 6
)

// Transfer encodings for smashed/gradient frames.
const (
	encFloat64 byte = 0
	encQuant8  byte = 1
)

// Hello flag bits.
const helloFlagQuantize byte = 1 << 0

// ErrFrameTooLarge reports a length prefix beyond the connection's
// frame cap.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// TurnState is the client-side training state a group relays from
// client to client through the AP: the client-half parameters plus the
// group's client-side optimizer state (momentum buffers and step
// counter). Relaying the optimizer alongside the model is what keeps a
// TCP group's update sequence identical to the in-process trainer,
// where one client-side optimizer per group persists across the whole
// relay chain.
type TurnState struct {
	Model model.Snapshot
	Opt   optim.SGDState
}

// helloMsg is the decoded registration frame.
type helloMsg struct {
	ClientID int
	Samples  int64
	Quantize bool
}

// --- encoding ----------------------------------------------------------

// wireEnc builds one frame in a reusable buffer: bincodec's vocabulary
// plus the frame header and the payload parts only frames carry.
type wireEnc struct {
	bincodec.Enc
}

func (e *wireEnc) begin(kind byte) {
	e.Buf = append(e.Buf[:0], 0, 0, 0, 0, kind)
}

// finish patches the length prefix and returns the complete frame.
func (e *wireEnc) finish() []byte {
	binary.LittleEndian.PutUint32(e.Buf[0:4], uint32(len(e.Buf)-frameHeaderLen))
	return e.Buf
}

func (e *wireEnc) quantized(q *quantize.Quantized) {
	e.F64(q.Min)
	e.F64(q.Scale)
	e.Shape(q.Shape)
	e.Raw(q.Codes)
}

func (e *wireEnc) labels(ys []int) {
	e.U32(uint32(len(ys)))
	for _, y := range ys {
		e.U32(uint32(y))
	}
}

func (e *wireEnc) turnState(st *TurnState) {
	e.OptState(&st.Opt)
	e.Tensors(st.Model.Tensors)
}

// --- decoding ----------------------------------------------------------

// wireDec is a cursor over one frame payload: bincodec's hardened
// decoder plus the payload parts only frames carry.
type wireDec struct {
	bincodec.Dec
}

func newWireDec(p []byte) wireDec { return wireDec{bincodec.NewDec("transport", p)} }

func (d *wireDec) quantized() *quantize.Quantized {
	q := &quantize.Quantized{Min: d.F64(), Scale: d.F64()}
	dims, n := d.Shape(1)
	if d.Err() != nil {
		return nil
	}
	q.Shape = dims
	codes := d.Raw(n)
	if d.Err() != nil {
		return nil
	}
	q.Codes = append([]uint8(nil), codes...)
	return q
}

// labelsInto decodes a label list into ys's storage when it fits.
func (d *wireDec) labelsInto(ys []int) []int {
	count := int(d.U32())
	if d.Err() != nil {
		return nil
	}
	if count > d.Remaining()/4 {
		d.Fail("label list claims %d entries in %d bytes", count, d.Remaining())
		return nil
	}
	ys = slices.Grow(ys[:0], count)[:count]
	for i := range ys {
		ys[i] = int(d.U32())
	}
	return ys
}

// turnState decodes a turn state into st, reusing its tensors and
// momentum buffers where they fit: a relay decodes every turn into the
// same destination. On failure st's contents are unspecified.
func (d *wireDec) turnState(st *TurnState) {
	d.OptStateInto(&st.Opt)
	st.Model.Tensors = d.TensorListInto(st.Model.Tensors)
}

// --- message codecs ----------------------------------------------------

func decodeHello(p []byte) (helloMsg, error) {
	d := newWireDec(p)
	if magic := d.U32(); d.Err() == nil && magic != wireMagic {
		return helloMsg{}, fmt.Errorf("transport: bad hello magic %#x", magic)
	}
	if v := d.U16(); d.Err() == nil && v != wireVersion {
		return helloMsg{}, fmt.Errorf("transport: wire version %d, want %d", v, wireVersion)
	}
	msg := helloMsg{ClientID: int(int32(d.U32())), Samples: int64(d.U64())}
	flags := d.U8()
	msg.Quantize = flags&helloFlagQuantize != 0
	if err := d.Finish(); err != nil {
		return helloMsg{}, err
	}
	if msg.ClientID < 0 {
		return helloMsg{}, fmt.Errorf("transport: negative client id %d", msg.ClientID)
	}
	if msg.Samples < 0 {
		return helloMsg{}, fmt.Errorf("transport: negative sample count %d", msg.Samples)
	}
	return msg, nil
}

// decodeTrain decodes a train frame's turn state into st (see
// turnState) and returns its step count.
func decodeTrain(p []byte, st *TurnState) (steps int, err error) {
	d := newWireDec(p)
	steps = int(d.U32())
	d.turnState(st)
	if err := d.Finish(); err != nil {
		return 0, err
	}
	if steps <= 0 {
		return 0, fmt.Errorf("transport: train frame with %d steps", steps)
	}
	return steps, nil
}

// decodeSmashed decodes a smashed frame. Full-precision activations
// decode into into and the labels into ys's storage, where they fit, so
// a relay that passes the same destinations every step allocates
// nothing for them; nil destinations get new ones. On failure their
// contents are unspecified.
func decodeSmashed(p []byte, into *tensor.Tensor, ys []int) (acts *tensor.Tensor, q *quantize.Quantized, labels []int, err error) {
	d := newWireDec(p)
	switch enc := d.U8(); {
	case d.Err() != nil:
	case enc == encFloat64:
		acts = d.TensorInto(into)
	case enc == encQuant8:
		q = d.quantized()
	default:
		d.Fail("unknown transfer encoding %d", enc)
	}
	labels = d.labelsInto(ys)
	if err := d.Finish(); err != nil {
		return nil, nil, nil, err
	}
	return acts, q, labels, nil
}

// decodeGradient decodes a gradient frame; a full-precision gradient
// decodes into into (see decodeSmashed).
func decodeGradient(p []byte, into *tensor.Tensor) (grad *tensor.Tensor, q *quantize.Quantized, err error) {
	d := newWireDec(p)
	switch enc := d.U8(); {
	case d.Err() != nil:
	case enc == encFloat64:
		grad = d.TensorInto(into)
	case enc == encQuant8:
		q = d.quantized()
	default:
		d.Fail("unknown transfer encoding %d", enc)
	}
	if err := d.Finish(); err != nil {
		return nil, nil, err
	}
	return grad, q, nil
}

// decodeReturn decodes a return frame's turn state into st (see
// turnState).
func decodeReturn(p []byte, st *TurnState) error {
	d := newWireDec(p)
	d.turnState(st)
	return d.Finish()
}

// --- framed connection -------------------------------------------------

// frameConn frames one net.Conn: single-buffer encode with one Write
// per frame — or one writev of the encoded prefix and a borrowed tail
// (flushTail) — single-buffer reads, per-direction byte accounting, and
// a payload size cap. A frameConn is used by one goroutine at a time per
// direction (the protocol is strictly request/response). Reads go
// straight to the conn — no user-space buffering — so a read deadline
// that fires mid-frame never leaves hidden buffered state behind.
type frameConn struct {
	c        net.Conn
	enc      wireEnc
	rbuf     []byte
	maxFrame int
	// onRead/onWrite observe framed byte counts (nil = no accounting).
	onRead, onWrite func(n int)
}

func newFrameConn(c net.Conn, maxFrame int) *frameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	return &frameConn{c: c, maxFrame: maxFrame}
}

// readFrame returns the next frame's kind and payload. The payload is
// valid until the next readFrame call on this connection.
func (fc *frameConn) readFrame() (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fc.c, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	kind := hdr[4]
	if n > fc.maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, n, fc.maxFrame)
	}
	if cap(fc.rbuf) < n {
		fc.rbuf = make([]byte, n)
	}
	buf := fc.rbuf[:n]
	if _, err := io.ReadFull(fc.c, buf); err != nil {
		return 0, nil, fmt.Errorf("transport: mid-frame read: %w", err)
	}
	if fc.onRead != nil {
		fc.onRead(frameHeaderLen + n)
	}
	return kind, buf, nil
}

// flush writes the frame the encoder holds as a single Write.
func (fc *frameConn) flush() error { return fc.flushTail(nil) }

// flushTail writes the frame the encoder holds followed by tail, the
// rest of its payload, as one frame: the length prefix counts both, and
// a non-empty tail goes out with the encoded prefix in one writev
// (net.Buffers), straight from the caller's memory — a large blob is
// never copied into the encoder. tail is only read during the call.
func (fc *frameConn) flushTail(tail []byte) error {
	frame := fc.enc.Buf
	n := len(frame) - frameHeaderLen + len(tail)
	if n > fc.maxFrame {
		return fmt.Errorf("%w: encoding %d bytes, cap %d", ErrFrameTooLarge, n, fc.maxFrame)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	var wrote int64
	var err error
	if len(tail) == 0 {
		var w int
		w, err = fc.c.Write(frame)
		wrote = int64(w)
	} else {
		bufs := net.Buffers{frame, tail}
		wrote, err = bufs.WriteTo(fc.c)
	}
	if err != nil {
		return err
	}
	if wrote != int64(frameHeaderLen+n) {
		// A short write would desync the frame stream for the peer;
		// failing the turn here keeps the failure local and explicit.
		return io.ErrShortWrite
	}
	if fc.onWrite != nil {
		fc.onWrite(frameHeaderLen + n)
	}
	return nil
}

func (fc *frameConn) writeHello(id int, samples int64, quantized bool) error {
	fc.enc.begin(frameHello)
	fc.enc.U32(wireMagic)
	fc.enc.U16(wireVersion)
	fc.enc.U32(uint32(id))
	fc.enc.U64(uint64(samples))
	var flags byte
	if quantized {
		flags |= helloFlagQuantize
	}
	fc.enc.U8(flags)
	return fc.flush()
}

func (fc *frameConn) writeTrain(steps int, st *TurnState) error {
	fc.enc.begin(frameTrain)
	fc.enc.U32(uint32(steps))
	fc.enc.turnState(st)
	return fc.flush()
}

func (fc *frameConn) writeSmashed(acts *tensor.Tensor, q *quantize.Quantized, ys []int) error {
	fc.enc.begin(frameSmashed)
	if q != nil {
		fc.enc.U8(encQuant8)
		fc.enc.quantized(q)
	} else {
		fc.enc.U8(encFloat64)
		fc.enc.Tensor(acts)
	}
	fc.enc.labels(ys)
	return fc.flush()
}

func (fc *frameConn) writeGradient(grad *tensor.Tensor, q *quantize.Quantized) error {
	fc.enc.begin(frameGradient)
	if q != nil {
		fc.enc.U8(encQuant8)
		fc.enc.quantized(q)
	} else {
		fc.enc.U8(encFloat64)
		fc.enc.Tensor(grad)
	}
	return fc.flush()
}

func (fc *frameConn) writeReturn(st *TurnState) error {
	fc.enc.begin(frameReturn)
	fc.enc.turnState(st)
	return fc.flush()
}

func (fc *frameConn) writeShutdown() error {
	fc.enc.begin(frameShutdown)
	return fc.flush()
}

// writeRaw frames an already-encoded payload (the loadgen echo path).
func (fc *frameConn) writeRaw(kind byte, payload []byte) error {
	fc.enc.begin(kind)
	fc.enc.Buf = append(fc.enc.Buf, payload...)
	return fc.flush()
}
