//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the vector loops in vec.go. Every elementwise routine
// takes n ≥ 4, a multiple of 4, and performs per element exactly the
// operation sequence of its portable body: separate VMULPD / VADDPD /
// VSUBPD (no FMA), ordered-quiet compares, so the bits are the portable
// body's. The sum of squares takes n ≥ 8, a multiple of 8, and adds in
// its portable body's lane order. The exp at the end of this file is
// the exception: it takes rows, and fuses exactly where math.Exp, its
// portable body, does. All moves between general and vector registers are the VEX
// forms (VMOVQ, never MOVQ — the legacy encoding inside a VEX region
// costs a state transition per call) and every routine ends in
// VZEROUPPER.

// func maskPositiveAVX2(dst, src, gate *float64, n int64)
//
// dst[i] = src[i] AND (0 < gate[i] ? ones : 0). Predicate 0x11 is
// LT_OQ: false for NaN, for -0 and for +0.
TEXT ·maskPositiveAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ gate+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

mask_loop:
	VCMPPD $0x11, (DX)(AX*8), Y0, Y1   // 0 < gate
	VANDPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  mask_loop

	VZEROUPPER
	RET

// func sumSquaresAVX2(x *float64, n int64) float64
//
// Lanes 0–3 accumulate in Y0 and lanes 4–7 in Y1, each square rounded
// before it is added. The fold is the portable body's: Y0+Y1 gives
// (l0+l4, l1+l5, l2+l6, l3+l7), its halves added give
// ((l0+l4)+(l2+l6), (l1+l5)+(l3+l7)), and those two are added last.
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

sumsq_loop:
	VMOVUPD (SI)(AX*8), Y2
	VMULPD Y2, Y2, Y2
	VADDPD Y2, Y0, Y0                  // lanes 0–3
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y1, Y1                  // lanes 4–7
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  sumsq_loop

	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VMOVSD X0, ret+16(FP)
	VZEROUPPER
	RET

// func sgdMomentumAVX2(p, v, grad *float64, n int64, lr, momentum, clip, decay float64)
//
// gj = grad·clip + decay·p;  v = momentum·v + gj;  p = p − lr·v.
// (The third parameter is not called g: that name assembles as the
// goroutine register.)
TEXT ·sgdMomentumAVX2(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y12
	VBROADCASTSD momentum+40(FP), Y13
	VBROADCASTSD clip+48(FP), Y14
	VBROADCASTSD decay+56(FP), Y15
	XORQ AX, AX

sgd_loop:
	VMULPD (DX)(AX*8), Y14, Y0         // grad·clip
	VMOVUPD (DI)(AX*8), Y1             // p
	VMULPD Y1, Y15, Y2                 // decay·p
	VADDPD Y2, Y0, Y0                  // gj
	VMULPD (SI)(AX*8), Y13, Y3         // momentum·v
	VADDPD Y0, Y3, Y3                  // v
	VMOVUPD Y3, (SI)(AX*8)
	VMULPD Y3, Y12, Y4                 // lr·v
	VSUBPD Y4, Y1, Y1                  // p − lr·v
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  sgd_loop

	VZEROUPPER
	RET

// Even lane offsets of one 4-window step of the pool.
DATA poolLanes<>+0(SB)/8, $0
DATA poolLanes<>+8(SB)/8, $2
DATA poolLanes<>+16(SB)/8, $4
DATA poolLanes<>+24(SB)/8, $6
GLOBL poolLanes<>(SB), RODATA|NOPTR, $32

// func maxPool2PlaneAVX2(out *float64, arg *int, in *float64, outH, outW, n, base, w int64, relu bool)
//
// The first n outputs (n ≥ 4, a multiple of 4, ≤ outW) of each of outH
// output rows; output rows are outW apart, input rows w apart, and
// output row i reads input rows 2i and 2i+1. Four windows a step. Each
// input row is loaded as (e0 o0 | e2 o2) and (e1 o1 | e3 o3) — 128-bit
// halves, so one unpack pair de-interleaves the window's even and odd
// columns in order. The scan is the portable body's: the first element
// seeds it, then r0's odd, r1's even and r1's odd column each replace
// the running maximum where strictly greater. VMAXPD with the candidate
// as its first source is exactly "candidate > best ? candidate : best",
// NaNs and signed zeros included; the same comparison (0x1E, GT_OQ)
// selects the winner's offset 0, 1, w or w+1 as int64 lanes, to which
// the window's own index base + 2i·w + 2j is added. arg may be nil.
// With relu set the seed is first masked to +0 unless 0 < seed
// (LT_OQ: false for NaN and both zeros), so the scan pools relu(in);
// the flag is the same for every step, so its branch always predicts.
// (R14 is scratch in ABI0: the wrapper restores g on return.)
TEXT ·maxPool2PlaneAVX2(SB), NOSPLIT, $0-65
	MOVQ out+0(FP), R10
	MOVQ arg+8(FP), R11
	MOVQ in+16(FP), R9
	MOVQ outH+24(FP), R12
	MOVQ outW+32(FP), BX
	SHLQ $3, BX                        // output row stride in bytes
	MOVQ base+48(FP), R13              // flat index of the row's first element
	MOVQ w+56(FP), AX
	MOVBQZX relu+64(FP), R14
	VPXOR Y15, Y15, Y15
	VPCMPEQQ Y9, Y9, Y9
	VPSUBQ Y9, Y15, Y9                 // 1 in every lane
	VPSLLQ $3, Y9, Y13                 // 8: input elements a step
	VPBROADCASTQ w+56(FP), Y10         // w
	VPADDQ Y9, Y10, Y11                // w+1
	VMOVDQU poolLanes<>(SB), Y14       // {0,2,4,6}

pool_row:
	MOVQ R9, SI                        // input row 2i
	LEAQ (R9)(AX*8), DX                // input row 2i+1
	MOVQ R10, DI
	MOVQ R11, R8
	MOVQ n+40(FP), CX
	VMOVQ R13, X12
	VPBROADCASTQ X12, Y12
	VPADDQ Y14, Y12, Y12               // row base + {0,2,4,6}

pool_loop:
	VMOVUPD (SI), X0
	VINSERTF128 $1, 32(SI), Y0, Y0
	VMOVUPD 16(SI), X1
	VINSERTF128 $1, 48(SI), Y1, Y1
	VUNPCKLPD Y1, Y0, Y2               // r0 even columns: the seed
	VUNPCKHPD Y1, Y0, Y3               // r0 odd columns
	VMOVUPD (DX), X0
	VINSERTF128 $1, 32(DX), Y0, Y0
	VMOVUPD 16(DX), X1
	VINSERTF128 $1, 48(DX), Y1, Y1
	VUNPCKLPD Y1, Y0, Y4               // r1 even columns
	VUNPCKHPD Y1, Y0, Y5               // r1 odd columns
	TESTQ R14, R14
	JZ   pool_seeded
	VCMPPD $0x11, Y2, Y15, Y6          // 0 < seed
	VANDPD Y6, Y2, Y2                  // relu(seed)

pool_seeded:
	VCMPPD $0x1E, Y2, Y3, Y6           // r0 odd > best
	VMAXPD Y2, Y3, Y2
	VPAND Y9, Y6, Y7                   // offset 1 or 0
	VCMPPD $0x1E, Y2, Y4, Y6           // r1 even > best
	VMAXPD Y2, Y4, Y2
	VBLENDVPD Y6, Y10, Y7, Y7
	VCMPPD $0x1E, Y2, Y5, Y6           // r1 odd > best
	VMAXPD Y2, Y5, Y2
	VBLENDVPD Y6, Y11, Y7, Y7
	VMOVUPD Y2, (DI)

	TESTQ R8, R8
	JZ   pool_next
	VPADDQ Y12, Y7, Y7
	VMOVDQU Y7, (R8)
	ADDQ $32, R8

pool_next:
	VPADDQ Y13, Y12, Y12
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  pool_loop

	LEAQ (R13)(AX*2), R13              // two input rows on
	MOVQ AX, CX
	SHLQ $4, CX
	ADDQ CX, R9
	ADDQ BX, R10
	TESTQ R11, R11
	JZ   pool_rows
	ADDQ BX, R11

pool_rows:
	DECQ R12
	JNZ  pool_row

	VZEROUPPER
	RET

// The avxfma branch of the standard library's exp (math/exp_amd64.s)
// in four lanes: its constants, each in every lane, and the exponent
// bias as four int32s. The decimal literals are that file's, so they
// assemble to the same bits.
#define LANES4(off, v) DATA expConsts<>+(off)(SB)/8, v; DATA expConsts<>+(off+8)(SB)/8, v; DATA expConsts<>+(off+16)(SB)/8, v; DATA expConsts<>+(off+24)(SB)/8, v
LANES4(0, $-708.0)                                         // lowest x taken
LANES4(32, $709.0)                                         // highest x taken
LANES4(64, $1.4426950408889634073599246810018920)          // LOG2E
LANES4(96, $0.69314718055966295651160180568695068359375)   // LN2U
LANES4(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES4(160, $0.0625)
LANES4(192, $2.0)
LANES4(224, $1.0)
LANES4(256, $0.5)
LANES4(288, $1.6666666666666666667e-1)
LANES4(320, $4.1666666666666666667e-2)
LANES4(352, $8.3333333333333333333e-3)
LANES4(384, $1.3888888888888888889e-3)
LANES4(416, $1.9841269841269841270e-4)
LANES4(448, $2.4801587301587301587e-5)
DATA expConsts<>+480(SB)/8, $0x000003FF000003FF
DATA expConsts<>+488(SB)/8, $0x000003FF000003FF
GLOBL expConsts<>(SB), RODATA|NOPTR, $496

// func expSubAVX2(dst, src, sub *float64, rows, w int64) int64
//
// dst[r·w+j] = exp(src[r·w+j] − sub[r]) over rows ≥ 1 rows of w ≥ 4
// elements, four a step; a row's last step overlaps the one before it
// when w is not a multiple of 4, so dst must not overlap src. Per lane
// it is the avxfma branch of math.Exp instruction for instruction —
// MULSD, CVTSD2SL and CVTSL2SD, two VFNMADD231SD, MULSD, the Horner
// chain of VFMADD213SD, four add/multiply steps, a last VFMADD213SD and
// the multiply by 2^k — each as its packed form, which rounds the same.
// Inside [−708, 709] math.Exp takes none of its branches (no overflow,
// no subnormal result), and neither does this. Every x is checked
// against that range (ordered compares, so NaN fails too); the routine
// returns how many leading rows passed. It stops after the first row
// that did not, which it has left written with garbage for the caller
// to redo.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ sub+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), R9
	SHLQ $3, R9                        // row stride in bytes
	LEAQ -32(R9), R10                  // byte offset of a row's last step
	XORQ R11, R11                      // rows done
	VMOVUPD expConsts<>+0(SB), Y4
	VMOVUPD expConsts<>+32(SB), Y5
	VMOVUPD expConsts<>+64(SB), Y6
	VMOVUPD expConsts<>+96(SB), Y7
	VMOVUPD expConsts<>+128(SB), Y8
	VMOVUPD expConsts<>+160(SB), Y9
	VMOVUPD expConsts<>+192(SB), Y10
	VMOVUPD expConsts<>+224(SB), Y11
	VMOVUPD expConsts<>+256(SB), Y14
	VMOVUPD expConsts<>+288(SB), Y15

exp_row:
	VBROADCASTSD (DX)(R11*8), Y12      // the row's shift
	VPCMPEQQ Y13, Y13, Y13             // every lane in range so far
	XORQ AX, AX

exp_step:
	CMPQ AX, R10
	CMOVQGT R10, AX
	VMOVUPD (SI)(AX*1), Y0
	VSUBPD Y12, Y0, Y0                 // x = src − sub
	VCMPPD $0x1D, Y4, Y0, Y3           // x ≥ −708 (GE_OQ)
	VANDPD Y3, Y13, Y13
	VCMPPD $0x12, Y5, Y0, Y3           // x ≤ 709 (LE_OQ)
	VANDPD Y3, Y13, Y13
	VMULPD Y6, Y0, Y1                  // x·LOG2E
	VCVTPD2DQY Y1, X2                  // k, to nearest
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y7, Y1, Y0            // x − k·LN2U
	VFNMADD231PD Y8, Y1, Y0            // − k·LN2L
	VMULPD Y9, Y0, Y0                  // r
	VMOVUPD expConsts<>+448(SB), Y1
	VFMADD213PD expConsts<>+416(SB), Y0, Y1
	VFMADD213PD expConsts<>+384(SB), Y0, Y1
	VFMADD213PD expConsts<>+352(SB), Y0, Y1
	VFMADD213PD expConsts<>+320(SB), Y0, Y1
	VFMADD213PD Y15, Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VFMADD213PD Y11, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y10, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y10, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y10, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y10, Y0, Y1
	VFMADD213PD Y11, Y1, Y0
	VPADDD expConsts<>+480(SB), X2, X2 // k + 1023
	VPMOVZXDQ X2, Y2
	VPSLLQ $52, Y2, Y2                 // 2^k
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	CMPQ AX, R10
	LEAQ 32(AX), AX
	JNE  exp_step

	VMOVMSKPD Y13, BX
	CMPQ BX, $15
	JNE  exp_done
	ADDQ R9, SI
	ADDQ R9, DI
	INCQ R11
	CMPQ R11, R8
	JLT  exp_row

exp_done:
	MOVQ R11, ret+40(FP)
	VZEROUPPER
	RET
