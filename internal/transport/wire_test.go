package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"gsfl/internal/model"
	"gsfl/internal/optim"
	"gsfl/internal/quantize"
	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// decodeFrame dispatches a payload through the kind's decoder,
// discarding the result — the fuzz entry point, exercising exactly the
// code the AP and clients run on untrusted input.
func decodeFrame(kind byte, p []byte) error {
	switch kind {
	case frameHello:
		_, err := decodeHello(p)
		return err
	case frameTrain:
		_, err := decodeTrain(p, new(TurnState))
		return err
	case frameSmashed:
		_, _, _, err := decodeSmashed(p, nil, nil)
		return err
	case frameGradient:
		_, _, err := decodeGradient(p, nil)
		return err
	case frameReturn:
		return decodeReturn(p, new(TurnState))
	case frameShutdown:
		if len(p) != 0 {
			return fmt.Errorf("transport: shutdown frame carries %d payload bytes", len(p))
		}
		return nil
	case FrameFleetHello, FrameFleetLease, FrameFleetProgress, FrameFleetResult, FrameFleetHeartbeat:
		return decodeFleetFrame(kind, p)
	default:
		return fmt.Errorf("transport: unknown frame kind %d", kind)
	}
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

// encodeFrame renders one frame through the production encoder and
// returns (kind, payload) — the exact bytes readFrame would hand a peer.
func encodeFrame(build func(e *wireEnc)) (byte, []byte) {
	var e wireEnc
	build(&e)
	frame := e.finish()
	return frame[4], append([]byte(nil), frame[frameHeaderLen:]...)
}

func testTurnState(seed int64) TurnState {
	rng := rand.New(rand.NewSource(seed))
	m := model.MLP(4, 3, 2).NewSplit(rng, 2)
	st := TurnState{
		Model: model.TakeSnapshot(m.Client),
		Opt: optim.SGDState{
			Step:           7,
			VelocityShapes: [][]int{{4, 3}, {3}},
			VelocityData:   [][]float64{make([]float64, 12), make([]float64, 3)},
		},
	}
	for _, buf := range st.Opt.VelocityData {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
	}
	return st
}

func TestWireHelloRoundTrip(t *testing.T) {
	kind, payload := encodeFrame(func(e *wireEnc) {
		e.begin(frameHello)
		e.U32(wireMagic)
		e.U16(wireVersion)
		e.U32(42)
		e.U64(1234)
		e.U8(helloFlagQuantize)
	})
	if kind != frameHello {
		t.Fatalf("kind %d", kind)
	}
	msg, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.ClientID != 42 || msg.Samples != 1234 || !msg.Quantize {
		t.Fatalf("decoded %+v", msg)
	}
}

func TestWireHelloRejectsBadMagicAndVersion(t *testing.T) {
	_, badMagic := encodeFrame(func(e *wireEnc) {
		e.begin(frameHello)
		e.U32(0xDEADBEEF)
		e.U16(wireVersion)
		e.U32(1)
		e.U64(1)
		e.U8(0)
	})
	if _, err := decodeHello(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}
	_, badVersion := encodeFrame(func(e *wireEnc) {
		e.begin(frameHello)
		e.U32(wireMagic)
		e.U16(wireVersion + 1)
		e.U32(1)
		e.U64(1)
		e.U8(0)
	})
	if _, err := decodeHello(badVersion); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestWireTrainRoundTrip(t *testing.T) {
	want := testTurnState(5)
	_, payload := encodeFrame(func(e *wireEnc) {
		e.begin(frameTrain)
		e.U32(3)
		e.turnState(&want)
	})
	var got TurnState
	steps, err := decodeTrain(payload, &got)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps %d, want 3", steps)
	}
	if want.Model.L2Distance(got.Model) != 0 {
		t.Fatal("model changed in transit")
	}
	if got.Opt.Step != want.Opt.Step || len(got.Opt.VelocityData) != len(want.Opt.VelocityData) {
		t.Fatalf("optimizer state changed: %+v", got.Opt)
	}
	for i, buf := range got.Opt.VelocityData {
		for j, v := range buf {
			if v != want.Opt.VelocityData[i][j] {
				t.Fatalf("velocity[%d][%d] = %v, want %v", i, j, v, want.Opt.VelocityData[i][j])
			}
		}
	}
}

// A relay decodes every turn into one destination: a turn state of the
// same shapes lands in the buffers already there, and one of other
// shapes still decodes exactly.
func TestWireTurnStateDecodesIntoItsDestination(t *testing.T) {
	returnPayload := func(st *TurnState) []byte {
		_, p := encodeFrame(func(e *wireEnc) {
			e.begin(frameReturn)
			e.turnState(st)
		})
		return p
	}
	same := func(got, want *TurnState) {
		t.Helper()
		if len(got.Model.Tensors) != len(want.Model.Tensors) || want.Model.L2Distance(got.Model) != 0 {
			t.Fatalf("model %v, want %v", got.Model.Tensors, want.Model.Tensors)
		}
		if got.Opt.Step != want.Opt.Step || len(got.Opt.VelocityData) != len(want.Opt.VelocityData) {
			t.Fatalf("optimizer state %+v, want %+v", got.Opt, want.Opt)
		}
		for i, buf := range want.Opt.VelocityData {
			if len(got.Opt.VelocityShapes[i]) != len(want.Opt.VelocityShapes[i]) || len(got.Opt.VelocityData[i]) != len(buf) {
				t.Fatalf("velocity %d is %v, want %v", i, got.Opt.VelocityShapes[i], want.Opt.VelocityShapes[i])
			}
			for j, v := range buf {
				if got.Opt.VelocityData[i][j] != v {
					t.Fatalf("velocity[%d][%d] = %v, want %v", i, j, got.Opt.VelocityData[i][j], v)
				}
			}
		}
	}

	var got TurnState
	first := testTurnState(5)
	if err := decodeReturn(returnPayload(&first), &got); err != nil {
		t.Fatal(err)
	}
	same(&got, &first)
	w, v := &got.Model.Tensors[0].Data[0], &got.Opt.VelocityData[0][0]
	second := testTurnState(6)
	if err := decodeReturn(returnPayload(&second), &got); err != nil {
		t.Fatal(err)
	}
	same(&got, &second)
	if &got.Model.Tensors[0].Data[0] != w || &got.Opt.VelocityData[0][0] != v {
		t.Fatal("decoding a state of the same shapes replaced buffers that fit")
	}

	other := TurnState{
		Model: model.Snapshot{Tensors: []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)}},
		Opt: optim.SGDState{Step: 2, VelocityShapes: [][]int{{20}},
			VelocityData: [][]float64{make([]float64, 20)}},
	}
	other.Opt.VelocityData[0][19] = -1
	if err := decodeReturn(returnPayload(&other), &got); err != nil {
		t.Fatal(err)
	}
	same(&got, &other)
	if d := got.Model.Tensors[0]; d.Dims() != 2 || d.Dim(0) != 2 || d.Dim(1) != 3 {
		t.Fatalf("tensor shape %v, want [2 3]", d.Shape())
	}
}

// TestWireRelayTensorsDecodeInPlace: a smashed frame decodes its
// activations and labels, and a gradient frame its gradient, into the
// destinations passed, which a relay passes again every step — the
// same buffers across two decodes, and no allocation.
func TestWireRelayTensorsDecodeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	smashed := func(seed int) []byte {
		_, p := encodeFrame(func(e *wireEnc) {
			e.begin(frameSmashed)
			e.U8(encFloat64)
			e.Tensor(tensor.New(3, 2, 4).RandNormal(rng, 0, 1))
			e.labels([]int{seed, 1, 0})
		})
		return p
	}
	gradient := func() []byte {
		_, p := encodeFrame(func(e *wireEnc) {
			e.begin(frameGradient)
			e.U8(encFloat64)
			e.Tensor(tensor.New(3, 2, 4).RandNormal(rng, 0, 1))
		})
		return p
	}
	first, second := smashed(2), smashed(5)
	var acts tensor.Tensor
	var ys []int
	got, _, ys, err := decodeSmashed(first, &acts, ys)
	if err != nil || got != &acts || ys[0] != 2 {
		t.Fatalf("first smashed frame: %v (decoded into %p, want %p; labels %v)", err, got, &acts, ys)
	}
	a, y := &acts.Data[0], &ys[0]
	got, _, ys, err = decodeSmashed(second, &acts, ys)
	if err != nil || got != &acts || ys[0] != 5 {
		t.Fatalf("second smashed frame: %v (decoded into %p, want %p; labels %v)", err, got, &acts, ys)
	}
	if &acts.Data[0] != a || &ys[0] != y {
		t.Fatal("decoding a smashed frame of the same shape replaced buffers that fit")
	}
	testutil.MaxAllocs(t, "decodeSmashed", 0, func() {
		if _, _, ys, err = decodeSmashed(first, &acts, ys); err != nil {
			t.Fatal(err)
		}
	})

	var grad tensor.Tensor
	g1, g2 := gradient(), gradient()
	if got, _, err = decodeGradient(g1, &grad); err != nil || got != &grad {
		t.Fatalf("first gradient frame: %v", err)
	}
	gd := &grad.Data[0]
	if got, _, err = decodeGradient(g2, &grad); err != nil || got != &grad || &grad.Data[0] != gd {
		t.Fatalf("second gradient frame: %v, or its buffer was replaced", err)
	}
	testutil.MaxAllocs(t, "decodeGradient", 0, func() {
		if _, _, err = decodeGradient(g1, &grad); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWireTrainReturnPayloadAlignment pins the layout guarantee the
// loadgen echo depends on: a return payload is exactly a train payload
// minus its leading step-count word.
func TestWireTrainReturnPayloadAlignment(t *testing.T) {
	st := testTurnState(9)
	_, train := encodeFrame(func(e *wireEnc) {
		e.begin(frameTrain)
		e.U32(5)
		e.turnState(&st)
	})
	if err := decodeReturn(train[4:], new(TurnState)); err != nil {
		t.Fatalf("train[4:] does not decode as a return payload: %v", err)
	}
}

func TestWireSmashedRoundTrip(t *testing.T) {
	acts := tensor.New(2, 3).RandNormal(rand.New(rand.NewSource(11)), 0, 1)
	ys := []int{1, 0}
	_, payload := encodeFrame(func(e *wireEnc) {
		e.begin(frameSmashed)
		e.U8(encFloat64)
		e.Tensor(acts)
		e.labels(ys)
	})
	got, q, gotYs, err := decodeSmashed(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q != nil {
		t.Fatal("full-precision frame decoded as quantized")
	}
	if !got.SameShape(acts) || got.L2Norm() != acts.L2Norm() {
		t.Fatal("activations changed in transit")
	}
	if len(gotYs) != 2 || gotYs[0] != 1 || gotYs[1] != 0 {
		t.Fatalf("labels %v", gotYs)
	}
	// Mutating the source after encode must not affect the decode.
	acts.Fill(0)
	if got.L2Norm() == 0 {
		t.Fatal("decoded tensor aliases the source")
	}
}

func TestWireQuantizedSmashedRoundTrip(t *testing.T) {
	acts := tensor.New(4, 5).RandNormal(rand.New(rand.NewSource(13)), 0, 1)
	q := quantize.Quantize(acts)
	_, payload := encodeFrame(func(e *wireEnc) {
		e.begin(frameSmashed)
		e.U8(encQuant8)
		e.quantized(q)
		e.labels([]int{0, 1, 2, 3})
	})
	got, gotQ, ys, err := decodeSmashed(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || gotQ == nil {
		t.Fatal("quantized frame decoded as full precision")
	}
	if len(ys) != 4 {
		t.Fatalf("labels %v", ys)
	}
	// Dequantizing the wire copy must reproduce the sender's numerics
	// exactly — quantization error is paid once, at QuantizeInto.
	a, b := q.DequantizeInto(new(tensor.Tensor)), gotQ.DequantizeInto(new(tensor.Tensor))
	if !a.SameShape(b) {
		t.Fatal("shape changed in transit")
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("dequantized[%d] %v != %v", i, b.Data[i], a.Data[i])
		}
	}
}

func TestWireGradientRoundTrip(t *testing.T) {
	grad := tensor.New(2, 3).RandNormal(rand.New(rand.NewSource(17)), 0, 1)
	_, payload := encodeFrame(func(e *wireEnc) {
		e.begin(frameGradient)
		e.U8(encFloat64)
		e.Tensor(grad)
	})
	got, q, err := decodeGradient(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q != nil || !got.SameShape(grad) || got.L2Norm() != grad.L2Norm() {
		t.Fatal("gradient changed in transit")
	}
}

func TestWireDecodersRejectHostileInput(t *testing.T) {
	st := testTurnState(19)
	_, ret := encodeFrame(func(e *wireEnc) {
		e.begin(frameReturn)
		e.turnState(&st)
	})
	cases := []struct {
		name string
		kind byte
		p    []byte
	}{
		{"truncated return", frameReturn, ret[:len(ret)/2]},
		{"trailing garbage", frameReturn, append(append([]byte(nil), ret...), 0xFF)},
		{"empty train", frameTrain, nil},
		{"smashed bad encoding", frameSmashed, []byte{9}},
		{"shutdown with payload", frameShutdown, []byte{1}},
		{"unknown kind", 99, nil},
		{"huge tensor rank", frameGradient, []byte{encFloat64, 200}},
		// Shape claims 2^32-ish elements backed by nothing: must error,
		// not allocate.
		{"oversized shape", frameGradient, []byte{encFloat64, 2, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"label flood", frameSmashed, []byte{encFloat64, 1, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xFF, 0xFF, 0xFF, 0x7F}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeFrame(tc.kind, tc.p); err == nil {
				t.Fatal("hostile payload accepted")
			}
		})
	}
}

func TestFrameConnRejectsOversizeFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sender := newFrameConn(a, 0)
	receiver := newFrameConn(b, 64) // tiny cap on the receiving side

	errc := make(chan error, 1)
	go func() {
		st := testTurnState(23)
		errc <- sender.writeReturn(&st)
	}()
	_, _, err := receiver.readFrame()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err %v, want ErrFrameTooLarge", err)
	}
	a.Close() // release the blocked writer
	<-errc

	// The cap also applies on the encode side.
	big := newFrameConn(a, 16)
	st := testTurnState(23)
	if err := big.writeReturn(&st); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameConnSurfacesShortWrite(t *testing.T) {
	short := &shortWriteConn{}
	fc := newFrameConn(short, 0)
	if err := fc.writeShutdown(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err %v, want ErrShortWrite", err)
	}
}

// shortWriteConn delivers one byte fewer than asked, without error — the
// (contract-violating) behaviour faultconn's partial-write fault models.
type shortWriteConn struct{ net.Conn }

func (c *shortWriteConn) Write(p []byte) (int, error) { return len(p) - 1, nil }

// FuzzDecodeFrame drives the exact decoder stack the AP and clients run
// on untrusted bytes. The invariant: any input either decodes or
// errors — never panics, never allocates beyond what the payload length
// can back (enforced structurally by the decoders' pre-allocation
// bounds checks; a violation here shows up as OOM or runtime panic).
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of every kind plus the classic
	// footguns (empty payload, truncation, trailing bytes).
	st := testTurnState(29)
	acts := tensor.New(2, 3).RandNormal(rand.New(rand.NewSource(31)), 0, 1)

	addFrame := func(build func(e *wireEnc)) {
		kind, payload := encodeFrame(build)
		f.Add(kind, payload)
		if len(payload) > 0 {
			f.Add(kind, payload[:len(payload)/2])
			f.Add(kind, append(append([]byte(nil), payload...), 0))
		}
	}
	addFrame(func(e *wireEnc) {
		e.begin(frameHello)
		e.U32(wireMagic)
		e.U16(wireVersion)
		e.U32(3)
		e.U64(100)
		e.U8(helloFlagQuantize)
	})
	addFrame(func(e *wireEnc) {
		e.begin(frameTrain)
		e.U32(2)
		e.turnState(&st)
	})
	addFrame(func(e *wireEnc) {
		e.begin(frameSmashed)
		e.U8(encFloat64)
		e.Tensor(acts)
		e.labels([]int{0, 1})
	})
	addFrame(func(e *wireEnc) {
		e.begin(frameSmashed)
		e.U8(encQuant8)
		e.quantized(quantize.Quantize(acts))
		e.labels([]int{0, 1})
	})
	addFrame(func(e *wireEnc) {
		e.begin(frameGradient)
		e.U8(encFloat64)
		e.Tensor(acts)
	})
	addFrame(func(e *wireEnc) {
		e.begin(frameReturn)
		e.turnState(&st)
	})
	f.Add(frameShutdown, []byte{})
	f.Add(byte(0), []byte{})
	f.Add(byte(255), []byte{0xFF, 0xFF, 0xFF, 0xFF})

	// The fleet job plane's frames (hello/lease/progress/result/heartbeat)
	// share this fuzz target; their seeds live next to their codecs.
	fleetFuzzSeeds(addFrame)

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		_ = decodeFrame(kind, payload)
	})
}
