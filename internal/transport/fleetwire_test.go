package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"

	"gsfl/internal/testutil"
)

// testLeaseGrant is a representative grant with a checkpoint handoff.
func testLeaseGrant() FleetLease {
	return FleetLease{
		Status:   LeaseGrant,
		JobID:    "a1b2c3d4e5f60718",
		Job:      []byte(`{"name":"fig2a/gsfl-g4","rounds":6}`),
		Progress: []byte(`{"round":4,"total_seconds":12.5}`),
		Ckpt:     bytes.Repeat([]byte{0xAB, 0xCD}, 512),
	}
}

// fleetPipe returns two FleetConns joined by an in-memory pipe.
func fleetPipe(t *testing.T, maxFrame int) (*FleetConn, *FleetConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewFleetConn(a, maxFrame), NewFleetConn(b, maxFrame)
}

// sendRecv runs write on one end and returns the frame the other reads.
func sendRecv(t *testing.T, w, r *FleetConn, write func() error) (byte, []byte) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- write() }()
	kind, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	// Copy: the buffer is only valid until the next ReadFrame.
	return kind, append([]byte(nil), payload...)
}

func TestFleetHelloRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)
	kind, p := sendRecv(t, w, r, func() error {
		return w.WriteHello(FleetHello{Worker: "worker-3", PID: 4321})
	})
	if kind != FrameFleetHello {
		t.Fatalf("kind %d", kind)
	}
	h, err := DecodeFleetHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if h.Worker != "worker-3" || h.PID != 4321 {
		t.Fatalf("decoded %+v", h)
	}
}

func TestFleetWelcomeRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)
	want := FleetWelcome{Fingerprint: 0xDEADBEEFCAFE, Jobs: 65, LeaseMillis: 15000, CheckpointEvery: 2}
	kind, p := sendRecv(t, w, r, func() error { return w.WriteWelcome(want) })
	if kind != FrameFleetHello {
		t.Fatalf("kind %d", kind)
	}
	got, err := DecodeFleetWelcome(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	// A welcome payload must not decode as a worker hello, and vice versa.
	if _, err := DecodeFleetHello(p); err == nil {
		t.Fatal("welcome decoded as worker hello")
	}
}

func TestFleetLeaseRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)

	// Request: empty payload.
	kind, p := sendRecv(t, w, r, w.WriteLeaseRequest)
	if kind != FrameFleetLease || len(p) != 0 {
		t.Fatalf("request kind %d payload %d bytes", kind, len(p))
	}
	if l, err := DecodeFleetLease(p); err != nil || l.Status != 0 {
		t.Fatalf("request decoded %+v, %v", l, err)
	}

	// Grant with checkpoint handoff.
	want := testLeaseGrant()
	_, p = sendRecv(t, r, w, func() error { return r.WriteLease(want) })
	got, err := DecodeFleetLease(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != LeaseGrant || got.JobID != want.JobID ||
		!bytes.Equal(got.Job, want.Job) || !bytes.Equal(got.Progress, want.Progress) ||
		!bytes.Equal(got.Ckpt, want.Ckpt) {
		t.Fatalf("grant changed in transit: %+v", got)
	}

	// Fresh-job grant: empty progress and checkpoint blobs survive.
	fresh := FleetLease{Status: LeaseGrant, JobID: "id", Job: []byte(`{}`)}
	_, p = sendRecv(t, r, w, func() error { return r.WriteLease(fresh) })
	if got, err = DecodeFleetLease(p); err != nil || len(got.Ckpt) != 0 || len(got.Progress) != 0 {
		t.Fatalf("fresh grant decoded %+v, %v", got, err)
	}

	// Drain.
	_, p = sendRecv(t, r, w, func() error {
		return r.WriteLease(FleetLease{Status: LeaseDrain})
	})
	if got, err = DecodeFleetLease(p); err != nil || got.Status != LeaseDrain {
		t.Fatalf("drain decoded %+v, %v", got, err)
	}
}

func TestFleetProgressRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)
	want := FleetProgress{
		JobID:       "a1b2c3d4e5f60718",
		Round:       4,
		HostSeconds: 3.14159,
		Progress:    []byte(`{"round":4}`),
		Ckpt:        bytes.Repeat([]byte{7}, 100),
	}
	kind, p := sendRecv(t, w, r, func() error { return w.WriteProgress(want) })
	if kind != FrameFleetProgress {
		t.Fatalf("kind %d", kind)
	}
	got, err := DecodeFleetProgress(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID != want.JobID || got.Round != want.Round || got.HostSeconds != want.HostSeconds ||
		!bytes.Equal(got.Progress, want.Progress) || !bytes.Equal(got.Ckpt, want.Ckpt) {
		t.Fatalf("progress changed in transit: %+v", got)
	}
}

func TestFleetResultRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)
	ok := FleetResult{JobID: "id1", HostSeconds: 2.5, Body: []byte(`{"total_seconds":9.75}`)}
	_, p := sendRecv(t, w, r, func() error { return w.WriteResult(ok) })
	got, err := DecodeFleetResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Failed || got.JobID != "id1" || got.HostSeconds != 2.5 || !bytes.Equal(got.Body, ok.Body) {
		t.Fatalf("result changed in transit: %+v", got)
	}
	failed := FleetResult{JobID: "id2", Failed: true, Body: []byte("env build: bad arch")}
	_, p = sendRecv(t, w, r, func() error { return w.WriteResult(failed) })
	if got, err = DecodeFleetResult(p); err != nil || !got.Failed || string(got.Body) != "env build: bad arch" {
		t.Fatalf("failed result decoded %+v, %v", got, err)
	}
}

func TestFleetHeartbeatAndAckRoundTrip(t *testing.T) {
	w, r := fleetPipe(t, 0)
	kind, p := sendRecv(t, w, r, func() error {
		return w.WriteHeartbeat(FleetHeartbeat{JobID: "id", Round: 3})
	})
	if kind != FrameFleetHeartbeat {
		t.Fatalf("kind %d", kind)
	}
	hb, err := DecodeFleetHeartbeat(p)
	if err != nil {
		t.Fatal(err)
	}
	if hb.JobID != "id" || hb.Round != 3 {
		t.Fatalf("heartbeat %+v", hb)
	}
	// A worker keepalive must not parse as a coordinator ack.
	if _, err := DecodeFleetAck(p); err == nil {
		t.Fatal("keepalive decoded as ack")
	}

	for _, okFlag := range []bool{true, false} {
		_, p = sendRecv(t, r, w, func() error { return r.WriteAck(FleetAck{OK: okFlag}) })
		ack, err := DecodeFleetAck(p)
		if err != nil {
			t.Fatal(err)
		}
		if ack.OK != okFlag {
			t.Fatalf("ack OK=%v, want %v", ack.OK, okFlag)
		}
	}
}

// TestFleetBlobsDoNotAliasReadBuffer pins the copy-out contract: decoded
// blobs must survive the connection's read-buffer reuse on the next
// frame.
func TestFleetBlobsDoNotAliasReadBuffer(t *testing.T) {
	w, r := fleetPipe(t, 0)
	first := testLeaseGrant()
	_, p := sendRecv(t, w, r, func() error { return w.WriteLease(first) })
	got, err := DecodeFleetLease(p)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the read buffer with a different frame of the same size.
	second := testLeaseGrant()
	for i := range second.Ckpt {
		second.Ckpt[i] = 0x11
	}
	sendRecv(t, w, r, func() error { return w.WriteLease(second) })
	if !bytes.Equal(got.Ckpt, first.Ckpt) {
		t.Fatal("decoded checkpoint blob aliases the connection read buffer")
	}
}

func TestFleetDecodersRejectHostileInput(t *testing.T) {
	grantPayload := func() []byte {
		var e wireEnc
		e.begin(FrameFleetLease)
		l := testLeaseGrant()
		e.U8(l.Status)
		e.Str(l.JobID)
		e.Blob(l.Job)
		e.Blob(l.Progress)
		e.Blob(l.Ckpt)
		return append([]byte(nil), e.finish()[frameHeaderLen:]...)
	}()
	cases := []struct {
		name string
		kind byte
		p    []byte
	}{
		{"hello empty", FrameFleetHello, nil},
		{"hello bad magic", FrameFleetHello, []byte{0xEF, 0xBE, 0xAD, 0xDE, 1, 0, 0}},
		{"hello bad version", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 99, 0, 0}},
		// A version-1 worker hello, well formed but for the retired poll.
		{"hello version 1", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 1, 0, 0, 1, 0, 0, 0, 'w', 1, 0, 0, 0, 0, 0, 0, 0}},
		// A version-2 worker hello, well formed, from a worker that
		// waits for heartbeat acks version 3 no longer sends.
		{"hello version 2", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 2, 0, 0, 1, 0, 0, 0, 'w', 1, 0, 0, 0, 0, 0, 0, 0}},
		{"hello bad role", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 7}},
		{"hello empty worker name", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}},
		// str length claims 64 KiB in a near-empty payload: must error
		// before allocating.
		{"hello name flood", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 0, 0xFF, 0xFF, 0, 0}},
		{"welcome truncated", FrameFleetHello, []byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 1, 9}},
		{"welcome zero cadence", FrameFleetHello, append([]byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 1}, make([]byte, 20)...)},
		// The version-1 layout: a retry cadence between lease and ckpt.
		{"welcome retry field", FrameFleetHello, append([]byte{0x4C, 0x46, 0x53, 0x47, 3, 0, 1}, make([]byte, 24)...)},
		{"lease unknown status", FrameFleetLease, []byte{9}},
		{"lease truncated grant", FrameFleetLease, grantPayload[:len(grantPayload)/2]},
		{"lease trailing garbage", FrameFleetLease, append(append([]byte(nil), grantPayload...), 0xFF)},
		{"lease empty job id", FrameFleetLease, []byte{LeaseGrant, 0, 0, 0, 0, 1, 0, 0, 0, 'x', 0, 0, 0, 0, 0, 0, 0, 0}},
		// Status 2 was the version-1 wait reply; requests now park.
		{"lease retired wait status", FrameFleetLease, []byte{2, 0xFA, 0, 0, 0}},
		{"lease drain trailing", FrameFleetLease, []byte{LeaseDrain, 1}},
		// blob length claims ~2 GiB backed by nothing: must error, not
		// allocate.
		{"lease ckpt flood", FrameFleetLease, []byte{LeaseGrant, 2, 0, 0, 0, 'i', 'd', 1, 0, 0, 0, 'x', 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"progress empty", FrameFleetProgress, nil},
		{"progress zero round", FrameFleetProgress, []byte{2, 0, 0, 0, 'i', 'd', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"result empty", FrameFleetResult, nil},
		{"result bad flag", FrameFleetResult, []byte{2, 0, 0, 0, 'i', 'd', 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"heartbeat empty", FrameFleetHeartbeat, nil},
		{"heartbeat bad role", FrameFleetHeartbeat, []byte{9, 0}},
		{"heartbeat empty job id", FrameFleetHeartbeat, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"ack truncated", FrameFleetHeartbeat, []byte{1}},
		{"ack trailing", FrameFleetHeartbeat, []byte{1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeFrame(tc.kind, tc.p); err == nil {
				t.Fatal("hostile payload accepted")
			}
		})
	}
}

func TestFleetConnRejectsOversizePayload(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sender := NewFleetConn(a, 0)
	receiver := NewFleetConn(b, 64) // tiny cap on the receiving side

	errc := make(chan error, 1)
	go func() {
		errc <- sender.WriteLease(testLeaseGrant())
	}()
	if _, _, err := receiver.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err %v, want ErrFrameTooLarge", err)
	}
	a.Close() // release the blocked writer
	<-errc

	// The cap also applies on the encode side.
	big := NewFleetConn(a, 16)
	if err := big.WriteLease(testLeaseGrant()); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err %v, want ErrFrameTooLarge", err)
	}

	// A checkpoint's two-buffer frame is capped on the prefix and the
	// tail together: a prefix that fits does not let it through, and
	// nothing is written.
	conn := &writeLog{}
	m := testProgress(bytes.Repeat([]byte{1}, 100))
	if err := NewFleetConn(conn, 64).WriteProgress(m); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err %v, want ErrFrameTooLarge", err)
	}
	if len(conn.writes) != 0 {
		t.Fatalf("an oversize frame wrote %d buffers", len(conn.writes))
	}
	m.Ckpt = nil
	if err := NewFleetConn(conn, 64).WriteProgress(m); err != nil {
		t.Fatalf("the prefix alone: %v", err)
	}
}

func TestFleetConnSurfacesShortWrite(t *testing.T) {
	fc := NewFleetConn(&shortWriteConn{}, 0)
	if err := fc.WriteLeaseRequest(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err %v, want ErrShortWrite", err)
	}
	// A checkpoint's two-buffer frame alike.
	if err := fc.WriteProgress(testProgress(bytes.Repeat([]byte{1}, 100))); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("progress err %v, want ErrShortWrite", err)
	}
}

// testProgress is a representative checkpoint upload carrying ckpt.
func testProgress(ckpt []byte) FleetProgress {
	return FleetProgress{
		JobID:       "a1b2c3d4e5f60718",
		Round:       4,
		HostSeconds: 3.14159,
		Progress:    []byte(`{"round":4}`),
		Ckpt:        ckpt,
	}
}

// encodeProgress encodes m as one buffer, the checkpoint copied in.
func encodeProgress(e *wireEnc, m FleetProgress) {
	e.begin(FrameFleetProgress)
	e.Str(m.JobID)
	e.U32(uint32(m.Round))
	e.F64(m.HostSeconds)
	e.Blob(m.Progress)
	e.Blob(m.Ckpt)
}

// writeLog is a conn that keeps a copy of every Write, whole.
type writeLog struct {
	net.Conn
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// TestFleetCheckpointTailKeepsTheWireBytes: a checkpoint sent as the
// frame's borrowed tail crosses as the same bytes a single-buffer
// encode of the frame makes, counted whole by the byte accounting, and
// the encoder never grows to the checkpoint's size.
func TestFleetCheckpointTailKeepsTheWireBytes(t *testing.T) {
	ckpt := bytes.Repeat([]byte{0x5A, 0xA5, 7}, 90_000)
	for _, tc := range []struct {
		name  string
		write func(f *FleetConn) error
		enc   func(e *wireEnc)
	}{
		{"progress", func(f *FleetConn) error { return f.WriteProgress(testProgress(ckpt)) }, func(e *wireEnc) {
			encodeProgress(e, testProgress(ckpt))
		}},
		{"lease grant", func(f *FleetConn) error {
			l := testLeaseGrant()
			l.Ckpt = ckpt
			return f.WriteLease(l)
		}, func(e *wireEnc) {
			l := testLeaseGrant()
			e.begin(FrameFleetLease)
			e.U8(l.Status)
			e.Str(l.JobID)
			e.Blob(l.Job)
			e.Blob(l.Progress)
			e.Blob(ckpt)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &writeLog{}
			f := NewFleetConn(conn, 0)
			var counted int
			f.fc.onWrite = func(n int) { counted += n }
			if err := tc.write(f); err != nil {
				t.Fatal(err)
			}
			var want wireEnc
			tc.enc(&want)
			got := bytes.Join(conn.writes, nil)
			if !bytes.Equal(got, want.finish()) {
				t.Fatalf("sent %d bytes that differ from the %d-byte single-buffer frame", len(got), len(want.Buf))
			}
			if counted != len(got) {
				t.Fatalf("onWrite counted %d bytes of a %d-byte frame", counted, len(got))
			}
			if c := cap(f.fc.enc.Buf); c >= len(ckpt) {
				t.Fatalf("encoder grew to %d bytes for a %d-byte checkpoint", c, len(ckpt))
			}
		})
	}
}

// TestDecodeFleetProgressCopiesNothing: the upload's sidecar and
// checkpoint are views into the payload, so decoding a 1 MiB checkpoint
// allocates what decoding a 1 KiB one does.
func TestDecodeFleetProgressCopiesNothing(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
	}
	measure := func(size int) cost {
		var e wireEnc
		encodeProgress(&e, testProgress(bytes.Repeat([]byte{3}, size)))
		payload := e.finish()[frameHeaderLen:]
		decode := func() {
			got, err := DecodeFleetProgress(payload)
			if err != nil || len(got.Ckpt) != size || &got.Ckpt[0] != &payload[len(payload)-size] {
				t.Fatalf("decode: %d-byte checkpoint not a view of the payload (%v)", len(got.Ckpt), err)
			}
		}
		const runs = 100
		c := cost{allocs: testing.AllocsPerRun(runs, decode), bytes: math.MaxUint64}
		// The fewest bytes over a few passes: the runtime's own
		// allocations land in TotalAlloc too, now and then.
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				decode()
			}
			runtime.ReadMemStats(&after)
			c.bytes = min(c.bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return c
	}
	small, large := measure(1<<10), measure(1<<20)
	t.Logf("1 KiB: %+v, 1 MiB: %+v per decode", small, large)
	if testutil.RaceEnabled {
		return // race instrumentation perturbs the counts
	}
	if small != large {
		t.Fatalf("decoding a 1 MiB checkpoint costs %+v, a 1 KiB one %+v", large, small)
	}
}

// fleetFuzzSeeds feeds one well-formed frame of every fleet message into
// FuzzDecodeFrame's corpus (the shared addFrame helper also seeds the
// half-truncated and trailing-byte variants).
func fleetFuzzSeeds(addFrame func(build func(e *wireEnc))) {
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetHello)
		e.U32(wireMagic)
		e.U16(fleetVersion)
		e.U8(fleetRoleWorker)
		e.Str("worker-1")
		e.U64(99)
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetHello)
		e.U32(wireMagic)
		e.U16(fleetVersion)
		e.U8(fleetRoleCoord)
		e.U64(0xFEEDFACE)
		e.U32(65)
		e.U32(15000)
		e.U32(2)
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetLease)
		l := testLeaseGrant()
		e.U8(l.Status)
		e.Str(l.JobID)
		e.Blob(l.Job)
		e.Blob(l.Progress)
		e.Blob(l.Ckpt)
	})
	addFrame(func(e *wireEnc) { // version 1's wait reply, now refused
		e.begin(FrameFleetLease)
		e.U8(2)
		e.U32(250)
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetLease)
		e.U8(LeaseDrain)
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetProgress)
		e.Str("a1b2c3d4")
		e.U32(4)
		e.F64(3.25)
		e.Blob([]byte(`{"round":4}`))
		e.Blob([]byte{1, 2, 3, 4})
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetResult)
		e.Str("a1b2c3d4")
		e.U8(0)
		e.F64(9.5)
		e.Blob([]byte(`{"total_seconds":1.5}`))
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetHeartbeat)
		e.U8(fleetRoleWorker)
		e.Str("a1b2c3d4")
		e.U32(3)
	})
	addFrame(func(e *wireEnc) {
		e.begin(FrameFleetHeartbeat)
		e.U8(fleetRoleCoord)
		e.U8(1)
	})
}
