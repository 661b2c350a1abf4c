#include "textflag.h"

// AVX2 twins of axpyQuadGo and dotRowGo (each for one output row and for
// two) and of axpyGo (gemm.go). Every multiply and add is a separate VMULPD/VADDPD
// (never a fused multiply-add) with its operands in the Go expression's
// order, so each output element is rounded exactly as the Go reference
// rounds it. Scalar column tails use VEX.128 scalar ops, which clear bits
// 128..255 of their destination: no live ymm value is ever the destination
// of one.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// QUAD sets T = ((c0*b0 + c1*b1) + c2*b2) + c3*b3 for the four columns at
// byte offset off past column AX, with U as scratch. Y0..Y3 hold c0..c3
// broadcast; SI, R8, R9, R10 point at b0..b3.
#define QUAD(off, T, U) \
	VMULPD off(SI)(AX*8), Y0, T; \
	VMULPD off(R8)(AX*8), Y1, U; \
	VADDPD U, T, T; \
	VMULPD off(R9)(AX*8), Y2, U; \
	VADDPD U, T, T; \
	VMULPD off(R10)(AX*8), Y3, U; \
	VADDPD U, T, T

// QUAD1 is QUAD for the single column AX, in the low lane of T.
#define QUAD1(T, U) \
	VMULSD (SI)(AX*8), X0, T; \
	VMULSD (R8)(AX*8), X1, U; \
	VADDSD U, T, T; \
	VMULSD (R9)(AX*8), X2, U; \
	VADDSD U, T, T; \
	VMULSD (R10)(AX*8), X3, U; \
	VADDSD U, T, T

// func quadAsm(o, b []float64, c0, c1, c2, c3 float64, assign bool)
TEXT ·quadAsm(SB), NOSPLIT, $0-81
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	VBROADCASTSD c0+48(FP), Y0
	VBROADCASTSD c1+56(FP), Y1
	VBROADCASTSD c2+64(FP), Y2
	VBROADCASTSD c3+72(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPB assign+80(FP), $0
	JEQ  acc8

assign8:
	CMPQ AX, DX
	JGE  assign4
	QUAD(0, Y4, Y5)
	QUAD(32, Y6, Y7)
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  assign8

assign4:
	CMPQ AX, BX
	JGE  assign1
	QUAD(0, Y4, Y5)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

assign1:
	CMPQ AX, CX
	JGE  done
	QUAD1(X4, X5)
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  assign1

acc8:
	CMPQ AX, DX
	JGE  acc4
	QUAD(0, Y4, Y5)
	QUAD(32, Y6, Y7)
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VADDPD  Y4, Y8, Y8
	VADDPD  Y6, Y9, Y9
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  acc8

acc4:
	CMPQ AX, BX
	JGE  acc1
	QUAD(0, Y4, Y5)
	VMOVUPD (DI)(AX*8), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX

acc1:
	CMPQ AX, CX
	JGE  done
	QUAD1(X4, X5)
	VMOVSD (DI)(AX*8), X8
	VADDSD X4, X8, X8
	VMOVSD X8, (DI)(AX*8)
	INCQ AX
	JMP  acc1

done:
	VZEROUPPER
	RET

// LOADB loads the four b rows' columns AX..AX+3 into Y8..Y11.
#define LOADB \
	VMOVUPD (SI)(AX*8), Y8; \
	VMOVUPD (R8)(AX*8), Y9; \
	VMOVUPD (R9)(AX*8), Y10; \
	VMOVUPD (R10)(AX*8), Y11

// LOADB1 is LOADB for the single column AX, into the low lanes.
#define LOADB1 \
	VMOVSD (SI)(AX*8), X8; \
	VMOVSD (R8)(AX*8), X9; \
	VMOVSD (R9)(AX*8), X10; \
	VMOVSD (R10)(AX*8), X11

// ROWQUAD sets T = ((c0*b0 + c1*b1) + c2*b2) + c3*b3 from the b columns in
// Y8..Y11, with the coefficients broadcast in K0..K3 and U as scratch.
#define ROWQUAD(K0, K1, K2, K3, T, U) \
	VMULPD Y8, K0, T; \
	VMULPD Y9, K1, U; \
	VADDPD U, T, T; \
	VMULPD Y10, K2, U; \
	VADDPD U, T, T; \
	VMULPD Y11, K3, U; \
	VADDPD U, T, T

// ROWQUAD1 is ROWQUAD for the low lanes of X8..X11.
#define ROWQUAD1(K0, K1, K2, K3, T, U) \
	VMULSD X8, K0, T; \
	VMULSD X9, K1, U; \
	VADDSD U, T, T; \
	VMULSD X10, K2, U; \
	VADDSD U, T, T; \
	VMULSD X11, K3, U; \
	VADDSD U, T, T

// func quad2Asm(o0, o1, b []float64, c00, c01, c02, c03, c10, c11, c12, c13 float64, assign bool)
//
// quadAsm for two output rows against the same four b rows: each b column
// is loaded once into Y8..Y11 and scaled by row 0's coefficients (Y0..Y3)
// and row 1's (Y4..Y7), each row's sum in exactly quadAsm's order.
TEXT ·quad2Asm(SB), NOSPLIT, $0-137
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), R11
	MOVQ b_base+48(FP), SI
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	VBROADCASTSD c00+72(FP), Y0
	VBROADCASTSD c01+80(FP), Y1
	VBROADCASTSD c02+88(FP), Y2
	VBROADCASTSD c03+96(FP), Y3
	VBROADCASTSD c10+104(FP), Y4
	VBROADCASTSD c11+112(FP), Y5
	VBROADCASTSD c12+120(FP), Y6
	VBROADCASTSD c13+128(FP), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPB assign+136(FP), $0
	JEQ  pacc4

passign4:
	CMPQ AX, BX
	JGE  passign1
	LOADB
	ROWQUAD(Y0, Y1, Y2, Y3, Y12, Y13)
	ROWQUAD(Y4, Y5, Y6, Y7, Y14, Y15)
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD Y14, (R11)(AX*8)
	ADDQ $4, AX
	JMP  passign4

passign1:
	CMPQ AX, CX
	JGE  pdone
	LOADB1
	ROWQUAD1(X0, X1, X2, X3, X12, X13)
	ROWQUAD1(X4, X5, X6, X7, X14, X15)
	VMOVSD X12, (DI)(AX*8)
	VMOVSD X14, (R11)(AX*8)
	INCQ AX
	JMP  passign1

pacc4:
	CMPQ AX, BX
	JGE  pacc1
	LOADB
	ROWQUAD(Y0, Y1, Y2, Y3, Y12, Y13)
	ROWQUAD(Y4, Y5, Y6, Y7, Y14, Y15)
	VMOVUPD (DI)(AX*8), Y13
	VMOVUPD (R11)(AX*8), Y15
	VADDPD  Y12, Y13, Y13
	VADDPD  Y14, Y15, Y15
	VMOVUPD Y13, (DI)(AX*8)
	VMOVUPD Y15, (R11)(AX*8)
	ADDQ $4, AX
	JMP  pacc4

pacc1:
	CMPQ AX, CX
	JGE  pdone
	LOADB1
	ROWQUAD1(X0, X1, X2, X3, X12, X13)
	ROWQUAD1(X4, X5, X6, X7, X14, X15)
	VMOVSD (DI)(AX*8), X13
	VMOVSD (R11)(AX*8), X15
	VADDSD X12, X13, X13
	VADDSD X14, X15, X15
	VMOVSD X13, (DI)(AX*8)
	VMOVSD X15, (R11)(AX*8)
	INCQ AX
	JMP  pacc1

pdone:
	VZEROUPPER
	RET

// func axpyAsm(o, b []float64, c float64)
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	MOVQ CX, BX
	ANDQ $-4, BX

axpy8:
	CMPQ AX, DX
	JGE  axpy4
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy8

axpy4:
	CMPQ AX, BX
	JGE  axpy1
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX

axpy1:
	CMPQ AX, CX
	JGE  axpydone
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ AX
	JMP  axpy1

axpydone:
	VZEROUPPER
	RET

// HSUM sets the low lane of L to ((s0+s1)+s2)+s3, where L = [s0, s1] and
// H = [s2, s3], with X12 as scratch.
#define HSUM(L, H) \
	VUNPCKHPD L, L, X12; \
	VADDSD    X12, L, L; \
	VADDSD    H, L, L; \
	VUNPCKHPD H, H, X12; \
	VADDSD    X12, L, L

// func dotRowAsm(o, x, y []float64, alpha float64, acc bool)
//
// Four output elements per pass: Y0..Y3 hold the lanes [s0 s1 s2 s3] of
// dot(x, y_j) for rows R8, R9, R10, R11 of y; p runs over k in steps of
// four, the k%4 tail adds into lane 0, and the lanes are summed in order.
TEXT ·dotRowAsm(SB), NOSPLIT, $0-81
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ y_base+48(FP), R8
	MOVQ BX, DX
	ANDQ $-4, DX
	MOVQ BX, R12
	SHLQ $3, R12
	VBROADCASTSD alpha+72(FP), Y14
	MOVBQZX acc+80(FP), R13

rows:
	CMPQ CX, $4
	JLT  dotdone
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

lanes:
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ $4, AX
	JMP  lanes

tail:
	// Park lanes s2, s3 in X8..X11 so the scalar tail may clear the
	// upper halves of Y0..Y3.
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VEXTRACTF128 $1, Y2, X10
	VEXTRACTF128 $1, Y3, X11

tail1:
	CMPQ AX, BX
	JGE  sum
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VADDSD X5, X0, X0
	VMULSD (R9)(AX*8), X4, X5
	VADDSD X5, X1, X1
	VMULSD (R10)(AX*8), X4, X5
	VADDSD X5, X2, X2
	VMULSD (R11)(AX*8), X4, X5
	VADDSD X5, X3, X3
	INCQ AX
	JMP  tail1

sum:
	HSUM(X0, X8)
	HSUM(X1, X9)
	HSUM(X2, X10)
	HSUM(X3, X11)
	VUNPCKLPD   X1, X0, X0
	VUNPCKLPD   X3, X2, X2
	VINSERTF128 $1, X2, Y0, Y0
	VMULPD      Y0, Y14, Y0
	TESTQ R13, R13
	JZ    store
	VMOVUPD (DI), Y4
	VADDPD  Y0, Y4, Y0

store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, CX
	LEAQ (R11)(R12*1), R8
	JMP  rows

dotdone:
	VZEROUPPER
	RET

// DOT2 adds x0·y into T0 and x1·y into T1, for the y row vector in Y10:
// x0 in Y8, x1 in Y9, Y11 and Y12 scratch.
#define DOT2(T0, T1) \
	VMULPD Y10, Y8, Y11; \
	VADDPD Y11, T0, T0; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y12, T1, T1

// SUM4 sets Y(A0) to the four dots ((s0+s1)+s2)+s3 of the accumulators
// A0..A3, parking their upper lanes in X8..X11.
#define SUM4(A0, A1, A2, A3, Y0A, X0A, X1A, X2A, X3A) \
	VEXTRACTF128 $1, A0, X8; \
	VEXTRACTF128 $1, A1, X9; \
	VEXTRACTF128 $1, A2, X10; \
	VEXTRACTF128 $1, A3, X11; \
	HSUM(X0A, X8); \
	HSUM(X1A, X9); \
	HSUM(X2A, X10); \
	HSUM(X3A, X11); \
	VUNPCKLPD   X1A, X0A, X0A; \
	VUNPCKLPD   X3A, X2A, X2A; \
	VINSERTF128 $1, X2A, Y0A, Y0A

// func dotRow2Asm(o0, o1, x0, x1, y []float64, alpha float64, acc bool)
//
// dotRowAsm for two rows x0, x1 against the same y rows: Y0..Y3 hold x0's
// lanes for y rows R8..R11 and Y4..Y7 x1's, so each y vector is loaded
// once for both rows. The k%4 tail multiplies zero-extended scalars, so it
// adds x·y to lane s0 and +0 to lanes s1..s3; a lane that starts at +0
// never holds -0, so adding +0 leaves it exactly as it was.
TEXT ·dotRow2Asm(SB), NOSPLIT, $0-129
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ x0_base+48(FP), SI
	MOVQ x0_len+56(FP), BX
	MOVQ x1_base+72(FP), R13
	MOVQ y_base+96(FP), R8
	MOVQ BX, DX
	ANDQ $-4, DX
	MOVQ BX, R12
	SHLQ $3, R12

rows2:
	CMPQ CX, $4
	JLT  dot2done
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

lanes2:
	CMPQ AX, DX
	JGE  tail2
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R13)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	DOT2(Y0, Y4)
	VMOVUPD (R9)(AX*8), Y10
	DOT2(Y1, Y5)
	VMOVUPD (R10)(AX*8), Y10
	DOT2(Y2, Y6)
	VMOVUPD (R11)(AX*8), Y10
	DOT2(Y3, Y7)
	ADDQ $4, AX
	JMP  lanes2

tail2:
	CMPQ AX, BX
	JGE  sum2
	VMOVSD (SI)(AX*8), X8
	VMOVSD (R13)(AX*8), X9
	VMOVSD (R8)(AX*8), X10
	DOT2(Y0, Y4)
	VMOVSD (R9)(AX*8), X10
	DOT2(Y1, Y5)
	VMOVSD (R10)(AX*8), X10
	DOT2(Y2, Y6)
	VMOVSD (R11)(AX*8), X10
	DOT2(Y3, Y7)
	INCQ AX
	JMP  tail2

sum2:
	SUM4(Y0, Y1, Y2, Y3, Y0, X0, X1, X2, X3)
	SUM4(Y4, Y5, Y6, Y7, Y4, X4, X5, X6, X7)
	VBROADCASTSD alpha+120(FP), Y14
	VMULPD       Y0, Y14, Y0
	VMULPD       Y4, Y14, Y4
	// AX = o1 - o0, so o1's current outputs are at (DI)(AX*1).
	MOVQ o1_base+24(FP), AX
	SUBQ o0_base+0(FP), AX
	CMPB acc+128(FP), $0
	JEQ  store2
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD (DI)(AX*1), Y9
	VADDPD  Y4, Y9, Y4

store2:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, DI
	SUBQ $4, CX
	LEAQ (R11)(R12*1), R8
	JMP  rows2

dot2done:
	VZEROUPPER
	RET
