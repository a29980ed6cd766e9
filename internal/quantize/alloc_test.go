package quantize

import (
	"math/rand"
	"testing"

	"gsfl/internal/tensor"
	"gsfl/internal/testutil"
)

// TestBufferMatchesRoundTrip pins the reusable round-trip workspace to
// the allocating composition bit for bit, including across shape changes
// and the constant-tensor special case.
func TestBufferMatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf Buffer
	cases := []*tensor.Tensor{
		tensor.New(4, 8).RandNormal(rng, 0, 1),
		tensor.New(2, 3).RandNormal(rng, -3, 5),
		tensor.Full(1.25, 6), // constant: zero scale path
		tensor.New(4, 8).RandNormal(rng, 0, 1),
	}
	for i, x := range cases {
		want := roundTrip(x)
		got := buf.RoundTrip(x)
		if !tensor.AllClose(got, want, 0) {
			t.Fatalf("case %d: Buffer.RoundTrip differs from Quantize then DequantizeInto", i)
		}
	}
}

func TestBufferRoundTripAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(16, 8).RandNormal(rng, 0, 1)
	var buf Buffer
	testutil.MaxAllocs(t, "quantize Buffer.RoundTrip", 0, func() { buf.RoundTrip(x) })
}
