// Package quantize implements uniform affine 8-bit quantization for
// tensors in transit.
//
// Split learning's per-step uplink carries cut-layer activations and its
// downlink the matching gradients; at float32 wire precision these
// dominate GSFL's communication budget. Quantizing transfers to one byte
// per scalar cuts that traffic 4x at a small, measurable accuracy cost —
// the classic communication/precision trade-off this package lets the
// experiments explore (the catalogue's `quant` experiment; see
// docs/ARCHITECTURE.md, "The sweep engine").
//
// The scheme is standard uniform affine quantization: a tensor maps to
// uint8 codes via code = round((x - min) / scale), dequantizing to
// x' = min + code*scale, with scale = (max-min)/255. The worst-case
// round-trip error is scale/2 per element.
package quantize

import (
	"fmt"
	"math"

	"gsfl/internal/tensor"
)

// WireBytesPerScalar is the transfer cost of one quantized element.
const WireBytesPerScalar = 1

// Quantized is an 8-bit encoded tensor.
type Quantized struct {
	Min   float64
	Scale float64
	Shape []int
	Codes []uint8
}

// Quantize encodes t with uniform affine quantization. Constant tensors
// (max == min) encode with zero scale and decode exactly.
func Quantize(t *tensor.Tensor) *Quantized {
	q := &Quantized{}
	QuantizeInto(q, t)
	return q
}

// QuantizeInto encodes t into q, reusing q's code and shape buffers —
// the destination-passing form of Quantize that the per-replica transfer
// workspaces use. Every field of q is overwritten, so results are
// identical to Quantize.
func QuantizeInto(q *Quantized, t *tensor.Tensor) {
	q.Shape = t.AppendShape(q.Shape[:0])
	if cap(q.Codes) < t.Size() {
		q.Codes = make([]uint8, t.Size())
	} else {
		q.Codes = q.Codes[:t.Size()]
	}
	q.Min, q.Scale = 0, 0
	if t.Size() == 0 {
		q.Codes = nil
		return
	}
	lo, hi := t.Min(), t.Max()
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		panic(fmt.Sprintf("quantize: non-finite tensor range [%v, %v]", lo, hi))
	}
	q.Min = lo
	q.Scale = (hi - lo) / 255
	if q.Scale == 0 {
		for i := range q.Codes {
			q.Codes[i] = 0 // all elements equal Min
		}
		return
	}
	inv := 1 / q.Scale
	for i, v := range t.Data {
		c := math.Round((v - lo) * inv)
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		q.Codes[i] = uint8(c)
	}
}

// DequantizeInto decodes into dst, shaping it to the encoded shape
// (reusing its storage) and returning dst. Every element is
// overwritten, so a reused dst gives a fresh one's results.
func (q *Quantized) DequantizeInto(dst *tensor.Tensor) *tensor.Tensor {
	dst.Ensure(q.Shape...)
	if q.Scale == 0 {
		dst.Fill(q.Min)
		return dst
	}
	for i, c := range q.Codes {
		dst.Data[i] = q.Min + float64(float64(c)*q.Scale)
	}
	return dst
}

// Buffer is a reusable quantize→dequantize workspace. Each
// concurrently-training replica owns its own (one per transfer
// direction); steady-state round trips then allocate nothing.
type Buffer struct {
	q   Quantized
	out tensor.Tensor
}

// RoundTrip quantizes t and immediately dequantizes it, returning the
// precision-lossy tensor the receiving side would see. The returned
// tensor is the buffer's own and is valid until the next call on the
// same Buffer. Results are bit-identical to Quantize then DequantizeInto.
func (b *Buffer) RoundTrip(t *tensor.Tensor) *tensor.Tensor {
	QuantizeInto(&b.q, t)
	return b.q.DequantizeInto(&b.out)
}
