//go:build !amd64 || purego

package tensor

// Off amd64, and in a purego build, there are no vector bodies: every
// *Vec handles nothing and the portable bodies in vec.go do all of the
// work.

func maskPositiveVec(dst, src, gate []float64) int { return 0 }

func maxPool2PlaneVec(out []float64, arg []int, in []float64, base, outH, outW, w int, relu bool) int {
	return 0
}

func sgdMomentumVec(p, v, grad []float64, lr, momentum, clip, decay float64) int { return 0 }

func sumSquaresVec(x []float64) (float64, int) { return 0, 0 }

func expSubVec(dst, src, sub []float64, w int) int { return 0 }
