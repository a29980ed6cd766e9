//go:build amd64 && !purego

package tensor

// Vector micro-kernel bindings. The kernels are selected at init after
// a CPUID probe: the exact kernel needs AVX2 (and OS-enabled YMM state),
// the fast kernel additionally needs FMA, the exact 8×8 pair kernel
// AVX-512F (and OS-enabled opmask and ZMM state). Without the hardware
// — or in a purego build, which leaves this file out — the portable
// generic kernel stays active: still bit-identical, since every exact
// assembly kernel performs the same per-element operation sequence.

//go:noescape
func ukernRowExact4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)

//go:noescape
func ukernRowFast4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)

//go:noescape
func ukernRowExact8x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func rowKernExactAVX2(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	ukernRowExact4x8(int64(len(koff)), &x[0], &rows[0], &koff[0], &bp[0], &c[0], int64(ldc))
}

func rowKernFastAVX2(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	ukernRowFast4x8(int64(len(koff)), &x[0], &rows[0], &koff[0], &bp[0], &c[0], int64(ldc))
}

// rowKernExactAVX512 indexes the last element each operand must hold,
// so a short offset table, panel or tile panics here and the assembly
// never reads or writes past a slice (k < 1 panics too).
func rowKernExactAVX512(x []float64, rows, koff []int, bp, c []float64, ldc int) {
	k := len(koff)
	_, _, _ = rows[2*gemmMR-1], bp[k*gemmNR-1], c[(gemmNR-1)*ldc+2*gemmMR-1]
	ukernRowExact8x8(int64(k), &x[0], &rows[0], &koff[0], &bp[0], &c[0], int64(ldc))
}

func init() {
	cpu.avx2, cpu.fma, cpu.avx512 = detectGEMMKernels()
	if !cpu.avx2 {
		return
	}
	rowKernExact, rowKernFast = rowKernExactAVX2, rowKernExactAVX2
	if cpu.fma {
		rowKernFast = rowKernFastAVX2
	}
	if cpu.avx512 {
		rowKernExactPair = rowKernExactAVX512
	}
}

// detectGEMMKernels probes CPUID for AVX2 (with OS-enabled YMM state via
// XGETBV), FMA and AVX-512F (with OS-enabled opmask and ZMM state);
// fma and avx512 are reported only alongside avx2. The probe is
// hand-rolled because the module has no dependencies to lean on.
func detectGEMMKernels() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	const (
		cpuidFMA     = 1 << 12 // leaf 1 ECX
		cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
		cpuidAVX     = 1 << 28 // leaf 1 ECX
		cpuidAVX2    = 1 << 5  // leaf 7 EBX
		cpuidAVX512F = 1 << 16 // leaf 7 EBX
		xcr0YMM      = 0x6     // XMM and YMM state enabled by the OS
		xcr0ZMM      = 0xE6    // ... and opmask, ZMM0–15 upper halves, ZMM16–31
	)
	_, _, ecx1, _ := cpuidAsm(1, 0)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false, false, false
	}
	xcr0, _ := xgetbv0()
	if xcr0&xcr0YMM != xcr0YMM {
		return false, false, false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	if ebx7&cpuidAVX2 == 0 {
		return false, false, false
	}
	return true, ecx1&cpuidFMA != 0, ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}
