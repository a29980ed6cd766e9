// Package bincodec is the one binary vocabulary trainer state is
// written in, whether it crosses a socket (internal/transport's frames)
// or goes to disk (the run checkpoint of internal/schemes and sim):
// little-endian throughout, every variable-length part prefixed by its
// length or shape.
//
//	tensor   := u8 ndim | ndim × u32 dim | n × f64
//	tensors  := u16 count | count × tensor
//	optstate := u64 step | tensors (momentum buffers)
//	str      := u32 len | len × u8
//	blob     := u32 len | len × u8
//
// Enc appends into one buffer its owner reuses. Dec is the hardened
// inverse: every read checks the bytes that remain first, and every
// claimed count, length or shape is validated against them before
// anything is allocated, so hostile or truncated input produces an
// error — never a panic, never an allocation larger than the input
// (FuzzDecodeFrame and FuzzLoadCheckpoint pin this from both sides).
package bincodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"gsfl/internal/optim"
	"gsfl/internal/tensor"
)

// MaxTensorDims bounds tensor rank; nothing this system builds exceeds
// rank 4.
const MaxTensorDims = 8

// Enc appends encoded values to Buf. The zero value is ready; reset it
// with Buf = Buf[:0] to reuse the buffer.
type Enc struct {
	Buf []byte
}

func (e *Enc) U8(v byte)    { e.Buf = append(e.Buf, v) }
func (e *Enc) U16(v uint16) { e.Buf = binary.LittleEndian.AppendUint16(e.Buf, v) }
func (e *Enc) U32(v uint32) { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Enc) U64(v uint64) { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Enc) F64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

// F64s appends xs as one raw block (no length: the caller's shape or
// count precedes it).
func (e *Enc) F64s(xs []float64) {
	off := len(e.Buf)
	e.Buf = slices.Grow(e.Buf, 8*len(xs))[:off+8*len(xs)]
	b := e.Buf[off:]
	if littleEndian {
		copy(b, f64Bytes(xs))
		return
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// littleEndian reports whether this host lays a float64 out in memory
// as the encoding does; then a block of them moves as one copy of its
// bytes, and only a big-endian host converts value by value.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is xs's memory as bytes.
func f64Bytes(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
}

// Raw appends b as it is.
func (e *Enc) Raw(b []byte) { e.Buf = append(e.Buf, b...) }

func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

func (e *Enc) Shape(dims []int) {
	e.U8(byte(len(dims)))
	for _, d := range dims {
		e.U32(uint32(d))
	}
}

func (e *Enc) Tensor(t *tensor.Tensor) {
	// Shape, without the copy t.Shape() makes.
	nd := t.Dims()
	e.U8(byte(nd))
	for i := 0; i < nd; i++ {
		e.U32(uint32(t.Dim(i)))
	}
	e.F64s(t.Data)
}

func (e *Enc) Tensors(ts []*tensor.Tensor) {
	e.U16(uint16(len(ts)))
	for _, t := range ts {
		e.Tensor(t)
	}
}

func (e *Enc) OptState(st *optim.SGDState) {
	e.U64(uint64(st.Step))
	e.U16(uint16(len(st.VelocityData)))
	for i, data := range st.VelocityData {
		e.Shape(st.VelocityShapes[i])
		e.F64s(data)
	}
}

// Dec is a cursor over one encoded message with a sticky error: after
// the first failure every read returns zero values, so a decoder checks
// Err (or Finish) where it matters instead of after every field.
type Dec struct {
	b   []byte
	off int
	err error
	pkg string
}

// NewDec returns a decoder over b whose errors are prefixed "pkg: ".
func NewDec(pkg string, b []byte) Dec { return Dec{b: b, pkg: pkg} }

// Err returns the first failure, nil while there is none.
func (d *Dec) Err() error { return d.err }

// Fail records a failure unless one is already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.pkg+": "+format, args...)
	}
}

// Remaining returns how many bytes are still unread.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Need reports whether n more bytes can be read, failing the decoder
// when they cannot.
func (d *Dec) Need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.Remaining() < n {
		d.Fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return false
	}
	return true
}

func (d *Dec) U8() byte {
	if !d.Need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U16() uint16 {
	if !d.Need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *Dec) U32() uint32 {
	if !d.Need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if !d.Need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Raw returns the next n bytes, aliasing the input; nil on failure.
func (d *Dec) Raw(n int) []byte {
	if !d.Need(n) {
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Dec) Str(max int) string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	if n > max {
		d.Fail("string length %d exceeds %d", n, max)
		return ""
	}
	return string(d.Raw(n))
}

// Blob reads a length-prefixed byte string. The returned slice is a
// copy, so it survives the input buffer's reuse.
func (d *Dec) Blob() []byte {
	return append([]byte(nil), d.Raw(int(d.U32()))...)
}

// Shape reads a dimension list and returns the element count. The
// product is bounded by what the remaining input could possibly back
// (elemBytes per element), so a hostile shape cannot trigger a huge
// allocation downstream.
func (d *Dec) Shape(elemBytes int) (dims []int, n int) {
	return d.shapeInto(nil, elemBytes)
}

// shapeInto is Shape reading the dimensions into dst's storage when it
// has room, so a caller that only passes them on can read them into an
// array on its stack.
func (d *Dec) shapeInto(dst []int, elemBytes int) (dims []int, n int) {
	nd := int(d.U8())
	if d.err != nil {
		return nil, 0
	}
	if nd > MaxTensorDims {
		d.Fail("tensor rank %d exceeds %d", nd, MaxTensorDims)
		return nil, 0
	}
	dims = slices.Grow(dst[:0], nd)[:nd]
	n = 1
	for i := range dims {
		v := d.U32()
		if d.err != nil {
			return nil, 0
		}
		dims[i] = int(v)
		n *= int(v)
		if n < 0 || n > d.Remaining()/elemBytes+1 {
			d.Fail("tensor shape %v claims more elements than the %d remaining bytes hold", slices.Clone(dims[:i+1]), d.Remaining())
			return nil, 0
		}
	}
	if n*elemBytes > d.Remaining() {
		d.Fail("tensor shape %v needs %d bytes, %d remain", slices.Clone(dims), n*elemBytes, d.Remaining())
		return nil, 0
	}
	return dims, n
}

// F64sInto fills dst from the next raw block; it writes nothing when
// the input is short.
func (d *Dec) F64sInto(dst []float64) {
	if !d.Need(8 * len(dst)) {
		return
	}
	if littleEndian {
		d.off += copy(f64Bytes(dst), d.b[d.off:])
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
}

// F64s reads a raw block of n values; nil when the input does not hold
// that many.
func (d *Dec) F64s(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining()/8 {
		d.Fail("block claims %d values in %d bytes", n, d.Remaining())
		return nil
	}
	xs := make([]float64, n)
	d.F64sInto(xs)
	return xs
}

// TensorInto decodes one tensor into t, reusing its storage when it is
// large enough, and returns it; a nil t gets a new tensor. On failure it
// returns nil and t's contents are unspecified.
func (d *Dec) TensorInto(t *tensor.Tensor) *tensor.Tensor {
	var buf [MaxTensorDims]int
	dims, _ := d.shapeInto(buf[:0], 8)
	if d.err != nil {
		return nil
	}
	if t == nil {
		t = tensor.New(dims...)
	} else {
		t.Ensure(dims...)
	}
	d.F64sInto(t.Data)
	return t
}

// TensorListInto decodes a tensor list into dst's tensors, reusing them
// in order (TensorInto), and returns the list; a nil dst decodes into
// new tensors. On failure it returns nil and dst's contents are
// unspecified.
func (d *Dec) TensorListInto(dst []*tensor.Tensor) []*tensor.Tensor {
	count := int(d.U16())
	if d.err != nil {
		return nil
	}
	// Each tensor costs at least its 1-byte rank.
	if count > d.Remaining() {
		d.Fail("tensor list claims %d tensors in %d bytes", count, d.Remaining())
		return nil
	}
	ts := dst[:0]
	for i := 0; i < count; i++ {
		var t *tensor.Tensor
		if i < len(dst) {
			t = dst[i]
		}
		if t = d.TensorInto(t); d.err != nil {
			return nil
		}
		ts = append(ts, t)
	}
	return ts
}

// OptState decodes an optimizer state into a new one; the zero state on
// failure.
func (d *Dec) OptState() optim.SGDState {
	var st optim.SGDState
	if d.OptStateInto(&st); d.err != nil {
		return optim.SGDState{}
	}
	return st
}

// OptStateInto decodes an optimizer state into st, reusing its momentum
// buffers where they are large enough. On failure st's contents are
// unspecified.
func (d *Dec) OptStateInto(st *optim.SGDState) {
	step := int(d.U64())
	if step < 0 {
		d.Fail("negative optimizer step count")
		return
	}
	count := int(d.U16())
	if d.err != nil {
		return
	}
	if count > d.Remaining() {
		d.Fail("optimizer state claims %d buffers in %d bytes", count, d.Remaining())
		return
	}
	st.Step = step
	shapes, bufs := st.VelocityShapes[:0], st.VelocityData[:0]
	for i := 0; i < count; i++ {
		dims, n := d.Shape(8)
		if d.err != nil {
			return
		}
		var buf []float64
		if i < len(st.VelocityData) {
			buf = st.VelocityData[i]
		}
		if buf == nil || cap(buf) < n {
			buf = make([]float64, n)
		}
		buf = buf[:n]
		d.F64sInto(buf)
		shapes, bufs = append(shapes, dims), append(bufs, buf)
	}
	st.VelocityShapes, st.VelocityData = shapes, bufs
}

// Finish reports the decoder's sticky error, or a trailing-garbage error
// when the input was longer than its message.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%s: %d trailing bytes after message", d.pkg, len(d.b)-d.off)
	}
	return nil
}
