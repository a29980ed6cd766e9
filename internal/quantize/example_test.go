package quantize_test

import (
	"fmt"

	"gsfl/internal/quantize"
	"gsfl/internal/tensor"
)

// ExampleQuantize shows the 4x wire saving of 8-bit transfer encoding
// and its bounded round-trip error.
func ExampleQuantize() {
	smashed := tensor.FromSlice([]float64{-1, -0.5, 0, 0.5, 1}, 5)
	q := quantize.Quantize(smashed)

	fullBytes := int64(smashed.Size()) * 4 // float32 wire
	fmt.Printf("full %dB -> quantized %dB\n",
		fullBytes, len(q.Codes)*quantize.WireBytesPerScalar)
	fmt.Printf("max error %.4f\n", q.Scale/2)
	// Output:
	// full 20B -> quantized 5B
	// max error 0.0039
}
