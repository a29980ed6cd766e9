package bincodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hostileFloats returns n values drawn from everything a float block
// can hold — ±0, ±Inf, NaNs of both signs with payloads, subnormals of
// both signs — and ordinary values.
func hostileFloats(rng *rand.Rand, n int) []float64 {
	special := []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000000, 0xFFF8000000000000, // quiet NaNs
		0x7FF0000000000001, 0xFFF4000000000ABC, // signalling NaN payloads
		0x7FFFFFFFFFFFFFFF, 0xFFF8DEADBEEF0001, // quiet NaN payloads
		1, 1<<63 | 1, 0x000FFFFFFFFFFFFF, 1<<63 | 0x0008000000000000, // subnormals
	}
	xs := make([]float64, n)
	for i := range xs {
		if rng.Intn(2) == 0 {
			xs[i] = math.Float64frombits(special[rng.Intn(len(special))])
		} else {
			xs[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(64)-32))
		}
	}
	return xs
}

// TestF64BlocksRoundTrip holds Enc.F64s and Dec.F64sInto to the
// per-element little-endian definition at lengths 0 … 67, on this
// host's path and on the value-by-value path a big-endian host takes:
// every block encodes to exactly the bytes binary.LittleEndian.PutUint64
// writes, after whatever the buffer held, and decodes back bit for bit.
func TestF64BlocksRoundTrip(t *testing.T) {
	host := littleEndian
	t.Cleanup(func() { littleEndian = host })
	rng := rand.New(rand.NewSource(1))
	for _, native := range []bool{true, false} {
		littleEndian = host && native
		for n := 0; n <= 67; n++ {
			what := fmt.Sprintf("littleEndian=%v n=%d", littleEndian, n)
			xs := hostileFloats(rng, n)
			want := []byte{0xA5, 0x5A, 0x01} // a prefix off 8-byte alignment
			for _, x := range xs {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
			}
			e := Enc{Buf: append([]byte(nil), want[:3]...)}
			e.F64s(xs)
			if !bytes.Equal(e.Buf, want) {
				t.Fatalf("%s: encoded % x, want % x", what, e.Buf, want)
			}

			d := NewDec("test", append(e.Buf, 0xEE))
			d.Raw(3)
			got := make([]float64, n)
			d.F64sInto(got)
			if err := d.Err(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for i := range xs {
				if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s: decoded [%d] = %016x, want %016x", what, i, math.Float64bits(got[i]), math.Float64bits(xs[i]))
				}
			}
			if d.Remaining() != 1 || d.U8() != 0xEE {
				t.Fatalf("%s: decoder did not stop at the end of the block", what)
			}
		}
	}
}

// TestF64sIntoShortInput: a block the input cannot hold sets the sticky
// error and leaves the destination untouched.
func TestF64sIntoShortInput(t *testing.T) {
	host := littleEndian
	t.Cleanup(func() { littleEndian = host })
	for _, native := range []bool{true, false} {
		littleEndian = host && native
		for _, n := range []int{1, 2, 5, 67} {
			for _, short := range []int{1, 7, 8} {
				var e Enc
				e.F64s(hostileFloats(rand.New(rand.NewSource(int64(n))), n))
				d := NewDec("test", e.Buf[:len(e.Buf)-short])
				dst := make([]float64, n)
				for i := range dst {
					dst[i] = -1.5
				}
				d.F64sInto(dst)
				if d.Err() == nil {
					t.Fatalf("littleEndian=%v n=%d, %d bytes short: no error", littleEndian, n, short)
				}
				for i, v := range dst {
					if v != -1.5 {
						t.Fatalf("littleEndian=%v n=%d, %d bytes short: wrote %v at %d", littleEndian, n, short, v, i)
					}
				}
				d.F64sInto(dst[:0]) // the error is sticky: nothing more is read
				if d.Remaining() != len(e.Buf)-short {
					t.Fatalf("littleEndian=%v n=%d: a failed read consumed input", littleEndian, n)
				}
			}
		}
	}
}
