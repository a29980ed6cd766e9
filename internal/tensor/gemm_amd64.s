//go:build amd64

#include "textflag.h"

// GEMM micro-kernels: one 4×8 (MR×NR) tile of C over the full k extent
// of a packed A panel (k×4 interleaved) and packed B panel (k×8
// interleaved). The tile lives in eight YMM accumulators (Y0–Y7); per k
// step the kernel loads one B row (Y8/Y9) and broadcasts each of the
// four A values, so every C element is a single accumulator updated in
// ascending-k order — the determinism contract of the engine. C is
// overwritten at the end; rows are ldc elements apart. k must be ≥ 1
// (the loop is do-while shaped; the Go wrapper guards k == 0).

// func ukernExact4x8(k int64, ap, bp, c *float64, ldc int64)
//
// Exact mode: multiply and add rounded separately (VMULPD + VADDPD),
// bit-identical to the portable scalar kernel.
TEXT ·ukernExact4x8(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), AX
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), SI
	SHLQ $3, SI            // ldc in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

exact_loop:
	VMOVUPD (BX), Y8       // b[0:4]
	VMOVUPD 32(BX), Y9     // b[4:8]

	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1

	VBROADCASTSD 8(AX), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y3, Y3

	VBROADCASTSD 16(AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5

	VBROADCASTSD 24(AX), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y7, Y7

	ADDQ $32, AX           // next A row (MR doubles)
	ADDQ $64, BX           // next B row (NR doubles)
	DECQ CX
	JNZ  exact_loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func ukernFast4x8(k int64, ap, bp, c *float64, ldc int64)
//
// Fast mode: the same tile with fused multiply-add — one rounding per
// update instead of two. Only reachable through a Reassociate numeric
// mode; pinned by tolerance tests, not bit-equality.
TEXT ·ukernFast4x8(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), AX
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), SI
	SHLQ $3, SI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

fast_loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (AX), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1

	VBROADCASTSD 8(AX), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3

	VBROADCASTSD 16(AX), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5

	VBROADCASTSD 24(AX), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7

	ADDQ $32, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  fast_loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ SI, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// Row-indirect micro-kernels: the same 4×8 tile and the same eight
// accumulators, for the convolution products (gemm.go, convGemmInto).
// The tile's 4 rows are points of the padded image x, read in place:
// per k step the kernel loads one offset koff[kk] and broadcasts
// x[rows[r] + koff[kk]] for each row — no packed A panel, no gathered B
// panel. Its 8 columns come from a packed k×8 panel of the small dense
// operand. Every element is still one accumulator updated in ascending-k
// order with the dense value as the multiply's first source, so the
// products and their order are those of the packed kernel over the
// materialized column matrix. The tile is stored transposed, column j
// at c[j*ldc], because the callers' outputs are (channels × rows)
// row-major. k must be ≥ 1.

// STORE_TILE_TRANSPOSED writes the 4×8 tile held as rows (Y0|Y1, Y2|Y3,
// Y4|Y5, Y6|Y7) to c column by column: c[j*ldc + r] for j < 8, r < 4,
// eight 4-wide stores. Each half of the tile is one 4×4 transpose —
// unpack pairs of rows, then recombine 128-bit lanes. DI = c, SI = ldc
// in bytes.
#define STORE_TILE_TRANSPOSED \
	VUNPCKLPD Y2, Y0, Y8 \
	VUNPCKHPD Y2, Y0, Y9 \
	VUNPCKLPD Y6, Y4, Y10 \
	VUNPCKHPD Y6, Y4, Y11 \
	VPERM2F128 $0x20, Y10, Y8, Y12 \
	VPERM2F128 $0x20, Y11, Y9, Y13 \
	VPERM2F128 $0x31, Y10, Y8, Y14 \
	VPERM2F128 $0x31, Y11, Y9, Y15 \
	VMOVUPD Y12, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y13, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y14, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y15, (DI) \
	ADDQ SI, DI \
	VUNPCKLPD Y3, Y1, Y8 \
	VUNPCKHPD Y3, Y1, Y9 \
	VUNPCKLPD Y7, Y5, Y10 \
	VUNPCKHPD Y7, Y5, Y11 \
	VPERM2F128 $0x20, Y10, Y8, Y12 \
	VPERM2F128 $0x20, Y11, Y9, Y13 \
	VPERM2F128 $0x31, Y10, Y8, Y14 \
	VPERM2F128 $0x31, Y11, Y9, Y15 \
	VMOVUPD Y12, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y13, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y14, (DI) \
	ADDQ SI, DI \
	VMOVUPD Y15, (DI)

// func ukernRowExact4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)
//
// Exact mode: VMULPD then VADDPD, bit-identical to rowKernExactGeneric.
TEXT ·ukernRowExact4x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ rows+16(FP), R12
	MOVQ koff+24(FP), DX
	MOVQ bp+32(FP), BX
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), SI
	SHLQ $3, SI            // ldc in bytes

	MOVQ (R12), R8
	LEAQ (AX)(R8*8), R8    // &x[rows[0]]
	MOVQ 8(R12), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(R12), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(R12), R11
	LEAQ (AX)(R11*8), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

rowexact_loop:
	MOVQ (DX), R12         // koff[kk]
	VMOVUPD (BX), Y8       // b[0:4]
	VMOVUPD 32(BX), Y9     // b[4:8]

	VBROADCASTSD (R8)(R12*8), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y1, Y1

	VBROADCASTSD (R9)(R12*8), Y13
	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y13, Y9, Y15
	VADDPD Y15, Y3, Y3

	VBROADCASTSD (R10)(R12*8), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (R11)(R12*8), Y13
	VMULPD Y13, Y8, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y13, Y9, Y15
	VADDPD Y15, Y7, Y7

	ADDQ $8, DX            // next offset
	ADDQ $64, BX           // next B row (NR doubles)
	DECQ CX
	JNZ  rowexact_loop

	STORE_TILE_TRANSPOSED
	VZEROUPPER
	RET

// func ukernRowFast4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)
//
// Fast mode: fused multiply-add, the per-element sequence of
// ukernFast4x8.
TEXT ·ukernRowFast4x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ x+8(FP), AX
	MOVQ rows+16(FP), R12
	MOVQ koff+24(FP), DX
	MOVQ bp+32(FP), BX
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), SI
	SHLQ $3, SI            // ldc in bytes

	MOVQ (R12), R8
	LEAQ (AX)(R8*8), R8    // &x[rows[0]]
	MOVQ 8(R12), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(R12), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(R12), R11
	LEAQ (AX)(R11*8), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

rowfast_loop:
	MOVQ (DX), R12         // koff[kk]
	VMOVUPD (BX), Y8       // b[0:4]
	VMOVUPD 32(BX), Y9     // b[4:8]

	VBROADCASTSD (R8)(R12*8), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y1

	VBROADCASTSD (R9)(R12*8), Y11
	VFMADD231PD Y11, Y8, Y2
	VFMADD231PD Y11, Y9, Y3

	VBROADCASTSD (R10)(R12*8), Y12
	VFMADD231PD Y12, Y8, Y4
	VFMADD231PD Y12, Y9, Y5

	VBROADCASTSD (R11)(R12*8), Y13
	VFMADD231PD Y13, Y8, Y6
	VFMADD231PD Y13, Y9, Y7

	ADDQ $8, DX            // next offset
	ADDQ $64, BX           // next B row (NR doubles)
	DECQ CX
	JNZ  rowfast_loop

	STORE_TILE_TRANSPOSED
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
