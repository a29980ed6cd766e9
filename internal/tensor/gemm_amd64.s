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

// AVX-512 bodies of the two exact kernels: an 8×8 tile — two vertically
// adjacent MR-row blocks against one B panel — in eight ZMM
// accumulators, one per row. Per k step there is one 64-byte load of the
// B row and, per row, one VMULPD with the row's A value as an embedded
// broadcast and one VADDPD: half the multiply/add instructions of two
// 4×8 calls for the same products in the same order, so each element is
// still one accumulator over ascending k with the multiply and the add
// rounded separately, and the bits are those of two ukernExact4x8 /
// ukernRowExact4x8 calls. Rows 0–3 read the first block's operand and
// rows 4–7 the second's; packing is unchanged. k must be ≥ 1. There is
// no FMA twin: no workload runs the fast mode. Only Z0–Z15 are used:
// VZEROUPPER returns their upper halves to the init state, but nothing
// short of XRSTOR does that for Z16–Z31, and a thread that has touched
// them pays for their save and restore at every context switch after.

#define ZERO_TILE_Z \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	VPXORQ Z4, Z4, Z4 \
	VPXORQ Z5, Z5, Z5 \
	VPXORQ Z6, Z6, Z6 \
	VPXORQ Z7, Z7, Z7

// func ukernExact8x8(k int64, ap0, ap1, bp, c *float64, ldc int64)
TEXT ·ukernExact8x8(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ ap0+8(FP), AX
	MOVQ ap1+16(FP), DX
	MOVQ bp+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), SI
	SHLQ $3, SI            // ldc in bytes

	ZERO_TILE_Z

exact8_loop:
	VMOVUPD (BX), Z8       // b[0:8]

	VMULPD.BCST (AX), Z8, Z9
	VADDPD Z9, Z0, Z0
	VMULPD.BCST 8(AX), Z8, Z10
	VADDPD Z10, Z1, Z1
	VMULPD.BCST 16(AX), Z8, Z11
	VADDPD Z11, Z2, Z2
	VMULPD.BCST 24(AX), Z8, Z12
	VADDPD Z12, Z3, Z3
	VMULPD.BCST (DX), Z8, Z13
	VADDPD Z13, Z4, Z4
	VMULPD.BCST 8(DX), Z8, Z14
	VADDPD Z14, Z5, Z5
	VMULPD.BCST 16(DX), Z8, Z15
	VADDPD Z15, Z6, Z6
	VMULPD.BCST 24(DX), Z8, Z9
	VADDPD Z9, Z7, Z7

	ADDQ $32, AX           // next A row of either panel (MR doubles)
	ADDQ $32, DX
	ADDQ $64, BX           // next B row (NR doubles)
	DECQ CX
	JNZ  exact8_loop

	VMOVUPD Z0, (DI)
	ADDQ SI, DI
	VMOVUPD Z1, (DI)
	ADDQ SI, DI
	VMOVUPD Z2, (DI)
	ADDQ SI, DI
	VMOVUPD Z3, (DI)
	ADDQ SI, DI
	VMOVUPD Z4, (DI)
	ADDQ SI, DI
	VMOVUPD Z5, (DI)
	ADDQ SI, DI
	VMOVUPD Z6, (DI)
	ADDQ SI, DI
	VMOVUPD Z7, (DI)
	VZEROUPPER
	RET

// func ukernRowExact8x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64)
//
// The row-indirect 8×8 tile: eight row pointers &x[rows[r]], and the
// transposed store as one in-register 8×8 transpose — unpack pairs of
// rows, then two rounds of 128-bit lane shuffles ($0x88 takes lanes
// 0,2 of each source, $0xDD lanes 1,3) — followed by eight 64-byte
// stores at c + j·ldc.
TEXT ·ukernRowExact8x8(SB), NOSPLIT, $0-56
	MOVQ x+8(FP), AX
	MOVQ rows+16(FP), BX
	MOVQ (BX), R8
	LEAQ (AX)(R8*8), R8    // &x[rows[0]]
	MOVQ 8(BX), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(BX), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(BX), R11
	LEAQ (AX)(R11*8), R11
	MOVQ 32(BX), R12
	LEAQ (AX)(R12*8), R12
	MOVQ 40(BX), R13
	LEAQ (AX)(R13*8), R13
	MOVQ 48(BX), SI
	LEAQ (AX)(SI*8), SI
	MOVQ 56(BX), DI
	LEAQ (AX)(DI*8), DI
	MOVQ k+0(FP), CX
	MOVQ koff+24(FP), DX
	MOVQ bp+32(FP), BX

	ZERO_TILE_Z

rowexact8_loop:
	MOVQ (DX), AX          // koff[kk]
	VMOVUPD (BX), Z8       // b[0:8]

	VMULPD.BCST (R8)(AX*8), Z8, Z9
	VADDPD Z9, Z0, Z0
	VMULPD.BCST (R9)(AX*8), Z8, Z10
	VADDPD Z10, Z1, Z1
	VMULPD.BCST (R10)(AX*8), Z8, Z11
	VADDPD Z11, Z2, Z2
	VMULPD.BCST (R11)(AX*8), Z8, Z12
	VADDPD Z12, Z3, Z3
	VMULPD.BCST (R12)(AX*8), Z8, Z13
	VADDPD Z13, Z4, Z4
	VMULPD.BCST (R13)(AX*8), Z8, Z14
	VADDPD Z14, Z5, Z5
	VMULPD.BCST (SI)(AX*8), Z8, Z15
	VADDPD Z15, Z6, Z6
	VMULPD.BCST (DI)(AX*8), Z8, Z9
	VADDPD Z9, Z7, Z7

	ADDQ $8, DX            // next offset
	ADDQ $64, BX           // next B row (NR doubles)
	DECQ CX
	JNZ  rowexact8_loop

	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), SI
	SHLQ $3, SI            // ldc in bytes

	// Row pairs: lane i of Z8 is (row0[2i], row1[2i]), of Z9 the odd
	// columns; Z10/Z11 rows 2,3; Z12/Z13 rows 4,5; Z14/Z15 rows 6,7.
	VUNPCKLPD Z1, Z0, Z8
	VUNPCKHPD Z1, Z0, Z9
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15
	// Rows 0–3 and 4–7 of columns {0,4}, {2,6}, {1,5}, {3,7}; the
	// accumulators are dead, so Z0–Z7 take them.
	VSHUFF64X2 $0x88, Z10, Z8, Z0
	VSHUFF64X2 $0xDD, Z10, Z8, Z1
	VSHUFF64X2 $0x88, Z14, Z12, Z2
	VSHUFF64X2 $0xDD, Z14, Z12, Z3
	VSHUFF64X2 $0x88, Z11, Z9, Z4
	VSHUFF64X2 $0xDD, Z11, Z9, Z5
	VSHUFF64X2 $0x88, Z15, Z13, Z6
	VSHUFF64X2 $0xDD, Z15, Z13, Z7
	// Whole columns, back in Z8–Z15.
	VSHUFF64X2 $0x88, Z2, Z0, Z8     // column 0
	VSHUFF64X2 $0x88, Z6, Z4, Z9     // column 1
	VSHUFF64X2 $0x88, Z3, Z1, Z10    // column 2
	VSHUFF64X2 $0x88, Z7, Z5, Z11    // column 3
	VSHUFF64X2 $0xDD, Z2, Z0, Z12    // column 4
	VSHUFF64X2 $0xDD, Z6, Z4, Z13    // column 5
	VSHUFF64X2 $0xDD, Z3, Z1, Z14    // column 6
	VSHUFF64X2 $0xDD, Z7, Z5, Z15    // column 7

	VMOVUPD Z8, (DI)
	ADDQ SI, DI
	VMOVUPD Z9, (DI)
	ADDQ SI, DI
	VMOVUPD Z10, (DI)
	ADDQ SI, DI
	VMOVUPD Z11, (DI)
	ADDQ SI, DI
	VMOVUPD Z12, (DI)
	ADDQ SI, DI
	VMOVUPD Z13, (DI)
	ADDQ SI, DI
	VMOVUPD Z14, (DI)
	ADDQ SI, DI
	VMOVUPD Z15, (DI)
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
