//go:build amd64

package tensor

// AVX2 micro-kernel bindings. The kernels are selected at init after a
// CPUID probe: the exact kernel needs AVX2 (and OS-enabled YMM state),
// the fast kernel additionally needs FMA. Without the hardware the
// portable generic kernels stay active — still bit-identical, since the
// exact AVX2 kernels perform the same per-element operation sequence.

//go:noescape
func ukernExact4x8(k int64, ap, bp, c *float64, ldc int64)

//go:noescape
func ukernFast4x8(k int64, ap, bp, c *float64, ldc int64)

//go:noescape
func ukernRowExact4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)

//go:noescape
func ukernRowFast4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func ukernExactAVX2(k int, ap, bp, c []float64, ldc int) {
	if k == 0 {
		zeroTile(c, ldc)
		return
	}
	ukernExact4x8(int64(k), &ap[0], &bp[0], &c[0], int64(ldc))
}

func ukernFastAVX2(k int, ap, bp, c []float64, ldc int) {
	if k == 0 {
		zeroTile(c, ldc)
		return
	}
	ukernFast4x8(int64(k), &ap[0], &bp[0], &c[0], int64(ldc))
}

func rowKernExactAVX2(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	ukernRowExact4x8(int64(len(koff)), &x[0], &rows[0], &koff[0], &bp[0], &c[0], int64(ldc))
}

func rowKernFastAVX2(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	ukernRowFast4x8(int64(len(koff)), &x[0], &rows[0], &koff[0], &bp[0], &c[0], int64(ldc))
}

func zeroTile(c []float64, ldc int) {
	for r := 0; r < gemmMR; r++ {
		row := c[r*ldc : r*ldc+gemmNR]
		for j := range row {
			row[j] = 0
		}
	}
}

func init() {
	avx2, fma := detectGEMMKernels()
	if !avx2 {
		return
	}
	kernExact, rowKernExact = ukernExactAVX2, rowKernExactAVX2
	kernFast, rowKernFast = ukernExactAVX2, rowKernExactAVX2
	if fma {
		kernFast, rowKernFast = ukernFastAVX2, rowKernFastAVX2
	}
}

// detectGEMMKernels probes CPUID for AVX2 (with OS-enabled YMM state via
// XGETBV) and FMA. The probe is hand-rolled because the module has no
// dependencies to lean on.
func detectGEMMKernels() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const (
		cpuidFMA     = 1 << 12 // leaf 1 ECX
		cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
		cpuidAVX     = 1 << 28 // leaf 1 ECX
		cpuidAVX2    = 1 << 5  // leaf 7 EBX
		xcr0YMM      = 0x6     // XMM and YMM state enabled by the OS
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false, false
	}
	if xeax, _ := xgetbv0(); xeax&xcr0YMM != xcr0YMM {
		return false, false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&cpuidAVX2 != 0, ecx1&cpuidFMA != 0
}
