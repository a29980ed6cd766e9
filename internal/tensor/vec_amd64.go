//go:build amd64 && !purego

package tensor

// AVX2 bindings of the vector bodies (vec.go). Each *Vec runs the
// assembly over the largest multiple-of-four prefix — of the slice, or
// for the pool of every output row; of eight for the sum of squares —
// and returns its length. The callers in vec.go have already cut every
// operand to the length the destination implies, so n never exceeds
// any of them; the assembly requires n ≥ 4 and n%4 == 0 (n ≥ 8 and
// n%8 == 0 for the sum of squares). The exp body works in rows instead
// and needs FMA as well (see expSubVec).

//go:noescape
func maskPositiveAVX2(dst, src, gate *float64, n int64)

//go:noescape
func maxPool2PlaneAVX2(out *float64, arg *int, in *float64, outH, outW, n, base, w int64, relu bool)

//go:noescape
func sgdMomentumAVX2(p, v, grad *float64, n int64, lr, momentum, clip, decay float64)

//go:noescape
func sumSquaresAVX2(x *float64, n int64) float64

//go:noescape
func expSubAVX2(dst, src, sub *float64, rows, w int64) int64

func maskPositiveVec(dst, src, gate []float64) int {
	n := len(dst) &^ 3
	if n == 0 || !cpu.avx2 {
		return 0
	}
	maskPositiveAVX2(&dst[0], &src[0], &gate[0], int64(n))
	return n
}

func maxPool2PlaneVec(out []float64, arg []int, in []float64, base, outH, outW, w int, relu bool) int {
	n := outW &^ 3
	if n == 0 || outH == 0 || !cpu.avx2 {
		return 0
	}
	var argp *int
	if arg != nil {
		argp = &arg[0]
	}
	maxPool2PlaneAVX2(&out[0], argp, &in[0], int64(outH), int64(outW), int64(n), int64(base), int64(w), relu)
	return n
}

func sgdMomentumVec(p, v, grad []float64, lr, momentum, clip, decay float64) int {
	n := len(p) &^ 3
	if n == 0 || !cpu.avx2 {
		return 0
	}
	sgdMomentumAVX2(&p[0], &v[0], &grad[0], int64(n), lr, momentum, clip, decay)
	return n
}

func sumSquaresVec(x []float64) (float64, int) {
	n := len(x) &^ 7
	if n == 0 || !cpu.avx2 {
		return 0, 0
	}
	return sumSquaresAVX2(&x[0], int64(n)), n
}

// expSubVec runs the exp body over the rows of w elements that dst,
// src and sub describe, and returns how many leading rows it finished;
// the row after those, if any, needs the portable body. It needs rows
// of at least four, and FMA: math.Exp takes the branch the body
// replicates exactly where the CPU has AVX and FMA, and everywhere
// else it would round differently.
func expSubVec(dst, src, sub []float64, w int) int {
	if w < 4 || len(sub) == 0 || !cpu.avx2 || !cpu.fma {
		return 0
	}
	_, _ = dst[len(sub)*w-1], src[len(sub)*w-1]
	return int(expSubAVX2(&dst[0], &src[0], &sub[0], int64(len(sub)), int64(w)))
}
