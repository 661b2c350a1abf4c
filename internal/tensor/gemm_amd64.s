#include "textflag.h"

// AVX2 twins of axpyQuadGo, axpyGo and dotRowGo (gemm.go). Every multiply
// and add is a separate VMULPD/VADDPD (never a fused multiply-add) with its
// operands in the Go expression's order, so each output element is
// rounded exactly as the Go reference rounds it. Scalar column tails use
// VEX.128 scalar ops, which clear bits 128..255 of their destination: no
// live ymm value is ever the destination of one.

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
