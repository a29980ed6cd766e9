//go:build amd64 && !purego

#include "textflag.h"

// The row-indirect micro-kernels (gemm.go, rowPlan): one 4×8 (MR×NR)
// tile over the full extent of an offset table koff. The tile's 4 rows
// are points of the large operand x, read in place — a convolution's
// padded image, a dense layer's W, an output gradient dy: per k step the
// kernel loads one offset koff[kk] and broadcasts x[rows[r] + koff[kk]]
// for each row. Its 8 columns come from a packed k×8 panel of the small
// operand (Y8/Y9). The tile lives in eight YMM accumulators (Y0–Y7), so
// every element is a single accumulator updated in ascending-k order
// with the packed value as the multiply's first source — the
// determinism contract of the engine, and the operation sequence of
// rowKernExactGeneric. The tile is stored transposed, column j at
// c[j*ldc], because the callers' outputs are (outC × rows) row-major —
// overwriting c or, when the add argument is set, added onto it
// (c + tile), which is how the input gradient's later tap groups land.
// k must be ≥ 1 (the loops are do-while shaped; rowPlan.run never hands
// a kernel an empty table).

// TRANSPOSE_HALF(r0, r1, r2, r3) turns one half of the 4×8 tile — four
// 4-wide row vectors, (Y0, Y2, Y4, Y6) for columns 0–3 or (Y1, Y3, Y5,
// Y7) for columns 4–7 — into its four columns in Y12–Y15: unpack pairs
// of rows, then recombine 128-bit lanes. Y8–Y11 are scratch, and dead
// after it.
#define TRANSPOSE_HALF(r0, r1, r2, r3) \
	VUNPCKLPD r1, r0, Y8 \
	VUNPCKHPD r1, r0, Y9 \
	VUNPCKLPD r3, r2, Y10 \
	VUNPCKHPD r3, r2, Y11 \
	VPERM2F128 $0x20, Y10, Y8, Y12 \
	VPERM2F128 $0x20, Y11, Y9, Y13 \
	VPERM2F128 $0x31, Y10, Y8, Y14 \
	VPERM2F128 $0x31, Y11, Y9, Y15

// PUT_COL(col) stores one column of the tile at DI and steps DI to the
// next column (SI = ldc in bytes); ADD_COL(col, tmp) adds it onto what
// is there instead, as c + tile, the order rowKernExactGeneric's += has.
#define PUT_COL(col) \
	VMOVUPD col, (DI) \
	ADDQ SI, DI

#define ADD_COL(col, tmp) \
	VMOVUPD (DI), tmp \
	VADDPD col, tmp, tmp \
	VMOVUPD tmp, (DI) \
	ADDQ SI, DI

// STORE_TILE_TRANSPOSED writes the 4×8 tile held as rows (Y0|Y1, Y2|Y3,
// Y4|Y5, Y6|Y7) to c column by column, c[j*ldc + r] for j < 8, r < 4 —
// overwriting c, or adding onto it when the add argument is set. DI = c,
// SI = ldc in bytes. It ends the kernel.
#define STORE_TILE_TRANSPOSED(addlabel) \
	TRANSPOSE_HALF(Y0, Y2, Y4, Y6) \
	CMPB add+56(FP), $0 \
	JNE addlabel \
	PUT_COL(Y12) \
	PUT_COL(Y13) \
	PUT_COL(Y14) \
	PUT_COL(Y15) \
	TRANSPOSE_HALF(Y1, Y3, Y5, Y7) \
	PUT_COL(Y12) \
	PUT_COL(Y13) \
	PUT_COL(Y14) \
	PUT_COL(Y15) \
	VZEROUPPER \
	RET \
addlabel: \
	ADD_COL(Y12, Y8) \
	ADD_COL(Y13, Y9) \
	ADD_COL(Y14, Y10) \
	ADD_COL(Y15, Y11) \
	TRANSPOSE_HALF(Y1, Y3, Y5, Y7) \
	ADD_COL(Y12, Y8) \
	ADD_COL(Y13, Y9) \
	ADD_COL(Y14, Y10) \
	ADD_COL(Y15, Y11) \
	VZEROUPPER \
	RET

// func ukernRowExact4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64, add bool)
//
// Exact mode: VMULPD then VADDPD, bit-identical to rowKernExactGeneric.
TEXT ·ukernRowExact4x8(SB), NOSPLIT, $0-57
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

	STORE_TILE_TRANSPOSED(rowexact_add)

// func ukernRowFast4x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64, add bool)
//
// Fast mode: the same tile with fused multiply-add — one rounding per
// update instead of two. Only reachable through a Reassociate numeric
// mode; pinned by tolerance tests, not bit-equality.
TEXT ·ukernRowFast4x8(SB), NOSPLIT, $0-57
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

	STORE_TILE_TRANSPOSED(rowfast_add)

// The AVX-512 body of the exact kernel: an 8×8 tile — two vertically
// adjacent MR-row blocks against one packed panel — in eight ZMM
// accumulators, one per row. Per k step there is one 64-byte load of the
// panel row and, per row, one VMULPD with the row's x value as an
// embedded broadcast and one VADDPD: half the multiply/add instructions
// of two 4×8 calls for the same products in the same order, so each
// element is still one accumulator over ascending k with the multiply
// and the add rounded separately, and the bits are those of two
// ukernRowExact4x8 calls. k must be ≥ 1. There is no FMA twin: no
// workload runs the fast mode. Only Z0–Z15 are used: VZEROUPPER returns
// their upper halves to the init state, but nothing short of XRSTOR does
// that for Z16–Z31, and a thread that has touched them pays for their
// save and restore at every context switch after.

#define ZERO_TILE_Z \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	VPXORQ Z4, Z4, Z4 \
	VPXORQ Z5, Z5, Z5 \
	VPXORQ Z6, Z6, Z6 \
	VPXORQ Z7, Z7, Z7

// func ukernRowExact8x8(k int64, x *float64, rows, koff *int, bp, c *float64, ldc int64, add bool)
//
// The 8×8 tile: eight row pointers &x[rows[r]], and the
// transposed store as one in-register 8×8 transpose — unpack pairs of
// rows, then two rounds of 128-bit lane shuffles ($0x88 takes lanes
// 0,2 of each source, $0xDD lanes 1,3) — followed by eight 64-byte
// stores at c + j·ldc.
TEXT ·ukernRowExact8x8(SB), NOSPLIT, $0-57
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

	CMPB add+56(FP), $0
	JNE  rowexact8_add
	PUT_COL(Z8)
	PUT_COL(Z9)
	PUT_COL(Z10)
	PUT_COL(Z11)
	PUT_COL(Z12)
	PUT_COL(Z13)
	PUT_COL(Z14)
	PUT_COL(Z15)
	VZEROUPPER
	RET

	// The add form: c + column, with c loaded into the dead Z0–Z7.
rowexact8_add:
	ADD_COL(Z8, Z0)
	ADD_COL(Z9, Z1)
	ADD_COL(Z10, Z2)
	ADD_COL(Z11, Z3)
	ADD_COL(Z12, Z4)
	ADD_COL(Z13, Z5)
	ADD_COL(Z14, Z6)
	ADD_COL(Z15, Z7)
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
