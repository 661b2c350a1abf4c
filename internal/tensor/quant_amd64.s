#include "textflag.h"

// AVX2 twins of maxAbsFiniteGo, quantizeGo, dequantizeGo, allFiniteGo and
// addScaledInt8Go (quant.go). Each slice length is a multiple of four; the Go wrappers
// run the tails. Operand order follows Go's assembler: the last operand
// is the destination and the one before it is Intel's first source.

// Lane i of lowBytes picks byte 4i of its source: the low byte of each
// int32 VCVTTPD2DQ produced. The other twelve lanes are zeroed.
DATA lowBytes<>+0(SB)/8, $0x808080800c080400
DATA lowBytes<>+8(SB)/8, $0x8080808080808080
GLOBL lowBytes<>(SB), RODATA|NOPTR, $16

// BCAST sets Y to the float64 or int64 bit pattern c in all four lanes.
// VMOVQ, not MOVQ: a legacy-SSE write to an xmm register while the ymm
// upper halves are live costs a state transition on some CPUs, and it
// tripled quantizeAsm's time per 512-element row on a Xeon.
#define BCAST(c, X, Y) \
	MOVQ         c, R11; \
	VMOVQ        R11, X; \
	VPBROADCASTQ X, Y

// func maxAbsFiniteAsm(x []float64) (float64, bool)
//
// Four accumulators of four lanes each for the max, so the VMAXPD latency
// does not bound the loop. VMAXPD takes its first source when that is
// greater and its second otherwise, so with the element first and the
// running max second a NaN element loses, as in a > max. A lane is NaN or
// ±Inf exactly when its bits with the sign cleared, a non-negative int64,
// exceed the largest finite magnitude's; the VPCMPGTQ masks are ORed and
// tested once at the end.
TEXT ·maxAbsFiniteAsm(SB), NOSPLIT, $0-33
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	BCAST($0x7fffffffffffffff, X15, Y15) // |.| mask
	BCAST($0x7fefffffffffffff, X14, Y14) // MaxFloat64's bits
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VPXOR  Y4, Y4, Y4
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX

mf16:
	CMPQ     AX, DX
	JGE      mf4
	VANDPD   (SI)(AX*8), Y15, Y6
	VANDPD   32(SI)(AX*8), Y15, Y7
	VANDPD   64(SI)(AX*8), Y15, Y8
	VANDPD   96(SI)(AX*8), Y15, Y9
	VMAXPD   Y0, Y6, Y0
	VMAXPD   Y1, Y7, Y1
	VMAXPD   Y2, Y8, Y2
	VMAXPD   Y3, Y9, Y3
	VPCMPGTQ Y14, Y6, Y6
	VPCMPGTQ Y14, Y7, Y7
	VPCMPGTQ Y14, Y8, Y8
	VPCMPGTQ Y14, Y9, Y9
	VPOR     Y7, Y6, Y6
	VPOR     Y9, Y8, Y8
	VPOR     Y8, Y6, Y6
	VPOR     Y6, Y4, Y4
	ADDQ     $16, AX
	JMP      mf16

mf4:
	CMPQ     AX, CX
	JGE      mfsum
	VANDPD   (SI)(AX*8), Y15, Y6
	VMAXPD   Y0, Y6, Y0
	VPCMPGTQ Y14, Y6, Y6
	VPOR     Y6, Y4, Y4
	ADDQ     $4, AX
	JMP      mf4

mfsum:
	// No lane holds a NaN, so the lanes combine in any order.
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+24(FP)
	VPTEST       Y4, Y4
	SETEQ        ret1+32(FP)
	VZEROUPPER
	RET

// func quantizeAsm(dst []byte, x []float64, s float64)
//
// q = x/s; t = trunc(q); r = t + copysign(1, q) where |q-t| >= 0.5, else
// t. q-t is q's fractional part, which is exact, so r is math.Round(q)
// for every q: ±Inf gives NaN in q-t and keeps t, and NaN stays NaN. The
// clamp puts the constant first, so a NaN passes through it as it does
// the Go comparisons, and VCVTTPD2DQ turns NaN into 0x80000000, whose low
// byte is the 0x00 Go's byte(int8(NaN)) gives on amd64.
TEXT ·quantizeAsm(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	VBROADCASTSD s+48(FP), Y0
	BCAST($0x7fffffffffffffff, X9, Y9)   // |.| mask
	BCAST($0x8000000000000000, X10, Y10) // sign mask
	BCAST($0x3ff0000000000000, X11, Y11) // 1
	BCAST($0x3fe0000000000000, X12, Y12) // 0.5
	BCAST($0x405fc00000000000, X13, Y13) // 127
	BCAST($0xc05fc00000000000, X14, Y14) // -127
	VMOVDQU lowBytes<>(SB), X15
	XORQ AX, AX

quant4:
	CMPQ AX, CX
	JGE  quantdone
	VMOVUPD  (SI)(AX*8), Y1
	VDIVPD   Y0, Y1, Y1                 // q
	VROUNDPD $3, Y1, Y2                 // t = trunc(q)
	VSUBPD   Y2, Y1, Y3
	VANDPD   Y9, Y3, Y3                 // |q-t|
	VCMPPD   $0x1d, Y12, Y3, Y3         // |q-t| >= 0.5 (GE_OQ)
	VANDPD   Y10, Y1, Y4
	VORPD    Y11, Y4, Y4                // copysign(1, q)
	VADDPD   Y4, Y2, Y4                 // t ± 1
	VBLENDVPD Y3, Y4, Y2, Y2            // r
	VMINPD   Y2, Y13, Y2                // 127 < r ? 127 : r
	VMAXPD   Y2, Y14, Y2                // -127 > r ? -127 : r
	VCVTTPD2DQY Y2, X2
	VPSHUFB  X15, X2, X2
	VMOVD    X2, (DI)(AX*1)
	ADDQ $4, AX
	JMP  quant4

quantdone:
	VZEROUPPER
	RET

// func dequantizeAsm(dst []float64, q []byte, scale float64)
//
// int8 → int32 → float64 is exact, so one VMULPD per lane rounds as the
// Go product does.
TEXT ·dequantizeAsm(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	VBROADCASTSD scale+48(FP), Y0
	XORQ AX, AX

deq4:
	CMPQ AX, CX
	JGE  deqdone
	VPMOVSXBD (SI)(AX*1), X1
	VCVTDQ2PD X1, Y1
	VMULPD    Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  deq4

deqdone:
	VZEROUPPER
	RET

// func addScaledInt8Asm(o []float64, q []byte, scale, c float64)
//
// int8 → int32 → float64 is exact, and so is a code times a float32-valued
// scale (at most 8+24 significant bits), so the first VMULPD rounds
// nothing. The second rounds c·v and VADDPD rounds the sum: the two
// roundings of the Go reference. An FMA would round once and differ.
TEXT ·addScaledInt8Asm(SB), NOSPLIT, $0-64
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	VBROADCASTSD scale+48(FP), Y0
	VBROADCASTSD c+56(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

acc8:
	CMPQ AX, DX
	JGE  acc4
	VPMOVSXBD (SI)(AX*1), X2
	VPMOVSXBD 4(SI)(AX*1), X3
	VCVTDQ2PD X2, Y2
	VCVTDQ2PD X3, Y3
	VMULPD    Y0, Y2, Y2             // v = code·scale, exact
	VMULPD    Y0, Y3, Y3
	VMULPD    Y1, Y2, Y2             // c·v
	VMULPD    Y1, Y3, Y3
	VADDPD    (DI)(AX*8), Y2, Y2     // o + c·v
	VADDPD    32(DI)(AX*8), Y3, Y3
	VMOVUPD   Y2, (DI)(AX*8)
	VMOVUPD   Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  acc8

acc4:
	CMPQ AX, CX
	JGE  accdone
	VPMOVSXBD (SI)(AX*1), X2
	VCVTDQ2PD X2, Y2
	VMULPD    Y0, Y2, Y2
	VMULPD    Y1, Y2, Y2
	VADDPD    (DI)(AX*8), Y2, Y2
	VMOVUPD   Y2, (DI)(AX*8)

accdone:
	VZEROUPPER
	RET

// func allFiniteAsm(x []float64) bool
//
// A lane is NaN or ±Inf exactly when its exponent bits are all set; the
// VPCMPEQQ masks of every chunk are ORed and tested once at the end.
TEXT ·allFiniteAsm(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	BCAST($0x7ff0000000000000, X15, Y15)
	VPXOR Y0, Y0, Y0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX

fin8:
	CMPQ     AX, DX
	JGE      fin4
	VPAND    (SI)(AX*8), Y15, Y1
	VPAND    32(SI)(AX*8), Y15, Y2
	VPCMPEQQ Y15, Y1, Y1
	VPCMPEQQ Y15, Y2, Y2
	VPOR     Y1, Y0, Y0
	VPOR     Y2, Y0, Y0
	ADDQ     $8, AX
	JMP      fin8

fin4:
	CMPQ     AX, CX
	JGE      finsum
	VPAND    (SI)(AX*8), Y15, Y1
	VPCMPEQQ Y15, Y1, Y1
	VPOR     Y1, Y0, Y0

finsum:
	VPTEST Y0, Y0
	SETEQ  ret+24(FP)
	VZEROUPPER
	RET
