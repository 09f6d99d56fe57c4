#include "textflag.h"

// Four float64 lanes of Go's math.Exp and math.Tanh, op for op. Each
// constant is stored four times so it can be a 256-bit memory operand.

#define SPLAT(off, v) DATA expconst<>+(off+0)(SB)/8, v; DATA expconst<>+(off+8)(SB)/8, v; DATA expconst<>+(off+16)(SB)/8, v; DATA expconst<>+(off+24)(SB)/8, v

// math.archExp's constants (math/exp_amd64.s).
SPLAT(0, $1.4426950408889634073599246810018920)                 // LOG2E
SPLAT(32, $0.69314718055966295651160180568695068359375)         // LN2U
SPLAT(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
SPLAT(96, $0.0625)
SPLAT(128, $2.4801587301587301587e-5)
SPLAT(160, $1.9841269841269841270e-4)
SPLAT(192, $1.3888888888888888889e-3)
SPLAT(224, $8.3333333333333333333e-3)
SPLAT(256, $4.1666666666666666667e-2)
SPLAT(288, $1.6666666666666666667e-1)
SPLAT(320, $0.5)
SPLAT(352, $1.0)
SPLAT(384, $2.0)

// math.tanh's constants (math/tanh.go): tanhP, tanhQ, the branch point
// and 0.5·MAXLOG.
SPLAT(416, $-9.64399179425052238628e-1)
SPLAT(448, $-9.92877231001918586564e1)
SPLAT(480, $-1.61468768441708447952e3)
SPLAT(512, $1.12811678491632931402e2)
SPLAT(544, $2.23548839060100448583e3)
SPLAT(576, $4.84406305325125486048e3)
SPLAT(608, $0.625)
SPLAT(640, $44.014845965556527147994)

// tensor.GELU's constants (ops.go): 0.044715 and sqrt(2/pi).
SPLAT(672, $0.044715)
SPLAT(704, $0.7978845608028654)

// The smallest softmax argument the straight-line exp takes: below it
// math.archExp may take its subnormal branch.
SPLAT(736, $-708.0)

// Sign and magnitude masks.
SPLAT(768, $0x8000000000000000)
SPLAT(800, $0x7fffffffffffffff)

// The exponent bias, as four int32 lanes.
DATA expconst<>+832(SB)/8, $0x000003ff000003ff
DATA expconst<>+840(SB)/8, $0x000003ff000003ff
GLOBL expconst<>(SB), RODATA|NOPTR, $848

#define LOG2E expconst<>+0(SB)
#define LN2U expconst<>+32(SB)
#define LN2L expconst<>+64(SB)
#define SIXTEENTH expconst<>+96(SB)
#define E7 expconst<>+128(SB)
#define E6 expconst<>+160(SB)
#define E5 expconst<>+192(SB)
#define E4 expconst<>+224(SB)
#define E3 expconst<>+256(SB)
#define E2 expconst<>+288(SB)
#define HALF expconst<>+320(SB)
#define ONE expconst<>+352(SB)
#define TWO expconst<>+384(SB)
#define P0 expconst<>+416(SB)
#define P1 expconst<>+448(SB)
#define P2 expconst<>+480(SB)
#define Q0 expconst<>+512(SB)
#define Q1 expconst<>+544(SB)
#define Q2 expconst<>+576(SB)
#define TANHSPLIT expconst<>+608(SB)
#define HALFMAXLOG expconst<>+640(SB)
#define CUBE expconst<>+672(SB)
#define SQRT2PI expconst<>+704(SB)
#define MINEXP expconst<>+736(SB)
#define SIGN expconst<>+768(SB)
#define ABS expconst<>+800(SB)
#define BIAS expconst<>+832(SB)

// EXP4 sets Y4 to exp(Y4) in each lane, as math.archExp's FMA path
// computes it. Every lane must lie in [-708, 709], so the exponent the
// reduction picks stays in the normal range and the scalar code's NaN,
// infinity, overflow and subnormal branches are never taken. Clobbers
// Y5, Y6 and Y7.
#define EXP4 \
	VMULPD       LOG2E, Y4, Y5; \
	VCVTPD2DQY   Y5, X6; \
	VCVTDQ2PD    X6, Y5; \
	VFNMADD231PD LN2U, Y5, Y4; \
	VFNMADD231PD LN2L, Y5, Y4; \
	VMULPD       SIXTEENTH, Y4, Y4; \
	VMOVUPD      E7, Y7; \
	VFMADD213PD  E6, Y4, Y7; \
	VFMADD213PD  E5, Y4, Y7; \
	VFMADD213PD  E4, Y4, Y7; \
	VFMADD213PD  E3, Y4, Y7; \
	VFMADD213PD  E2, Y4, Y7; \
	VFMADD213PD  HALF, Y4, Y7; \
	VFMADD213PD  ONE, Y4, Y7; \
	VMULPD       Y7, Y4, Y4; \
	VADDPD       TWO, Y4, Y7; \
	VMULPD       Y7, Y4, Y4; \
	VADDPD       TWO, Y4, Y7; \
	VMULPD       Y7, Y4, Y4; \
	VADDPD       TWO, Y4, Y7; \
	VMULPD       Y7, Y4, Y4; \
	VADDPD       TWO, Y4, Y7; \
	VFMADD213PD  ONE, Y7, Y4; \
	VPADDD       BIAS, X6, X6; \
	VPMOVSXDQ    X6, Y6; \
	VPSLLQ       $52, Y6, Y6; \
	VMULPD       Y6, Y4, Y4

// func geluAVX2(x []float32) (n int)
//
// Register use: SI the next group, CX whole groups in x, DX groups done. Y0
// holds x, Y1 y = sqrt(2/pi)·(x + 0.044715·x³), Y2 |y|, Y3 and Y12-Y14
// masks, Y4-Y7 the exp branch, Y8-Y11 the rational branch.
TEXT ·geluAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	XORQ DX, DX

loop:
	CMPQ DX, CX
	JGE  done

	// y = c0·(x + ((0.044715·x)·x)·x)
	VCVTPS2PD (SI), Y0
	VMULPD    CUBE, Y0, Y1
	VMULPD    Y0, Y1, Y1
	VMULPD    Y0, Y1, Y1
	VADDPD    Y1, Y0, Y1
	VMULPD    SQRT2PI, Y1, Y1

	// Leave the group to the scalar loop unless every |y| ≤ 0.5·MAXLOG
	// (ordered, so a NaN fails too).
	VANDPD    ABS, Y1, Y2
	VCMPPD    $0x12, HALFMAXLOG, Y2, Y3
	VMOVMSKPD Y3, AX
	CMPQ      AX, $15
	JNE       done

	// |y| ≥ 0.625: 1 − 2/(exp(2|y|)+1), negated where y < 0.
	VADDPD  Y2, Y2, Y4
	EXP4
	VADDPD  ONE, Y4, Y4
	VMOVUPD TWO, Y5
	VDIVPD  Y4, Y5, Y5
	VMOVUPD ONE, Y6
	VSUBPD  Y5, Y6, Y6
	VANDPD  SIGN, Y1, Y7
	VXORPD  Y7, Y6, Y6

	// |y| < 0.625: y + y·s·P(s)/Q(s) with s = y², and y itself at ±0.
	VMULPD    Y1, Y1, Y8
	VMULPD    P0, Y8, Y9
	VADDPD    P1, Y9, Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    P2, Y9, Y9
	VADDPD    Q0, Y8, Y10
	VMULPD    Y8, Y10, Y10
	VADDPD    Q1, Y10, Y10
	VMULPD    Y8, Y10, Y10
	VADDPD    Q2, Y10, Y10
	VMULPD    Y8, Y1, Y11
	VMULPD    Y9, Y11, Y11
	VDIVPD    Y10, Y11, Y11
	VADDPD    Y11, Y1, Y11
	VXORPD    Y13, Y13, Y13
	VCMPPD    $0x00, Y13, Y1, Y12
	VBLENDVPD Y12, Y1, Y11, Y11

	// t = tanh(y); the result is (0.5·x)·(1+t).
	VCMPPD     $0x1d, TANHSPLIT, Y2, Y14
	VBLENDVPD  Y14, Y6, Y11, Y11
	VADDPD     ONE, Y11, Y11
	VMULPD     HALF, Y0, Y0
	VMULPD     Y11, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (SI)

	ADDQ $16, SI
	INCQ DX
	JMP  loop

done:
	SHLQ       $2, DX
	MOVQ       DX, n+24(FP)
	VZEROUPPER
	RET

// func softmaxExpAVX2(xs []float32, mx float32, sum float64) (n int, s float64)
//
// Register use: SI the next group, CX whole groups in xs, DX groups done, X15
// mx in every lane, X14 the running sum. Y4 holds the exponentials.
TEXT ·softmaxExpAVX2(SB), NOSPLIT, $0-56
	MOVQ         xs_base+0(FP), SI
	MOVQ         xs_len+8(FP), CX
	SHRQ         $2, CX
	XORQ         DX, DX
	VBROADCASTSS mx+24(FP), X15
	VMOVSD       sum+32(FP), X14

sloop:
	CMPQ DX, CX
	JGE  sdone

	// exp(float64(v − mx)), leaving the group to the scalar loop unless
	// every argument is ≥ −708 (ordered, so a NaN fails too).
	VMOVUPS   (SI), X0
	VSUBPS    X15, X0, X0
	VCVTPS2PD X0, Y4
	VCMPPD    $0x1d, MINEXP, Y4, Y3
	VMOVMSKPD Y3, AX
	CMPQ      AX, $15
	JNE       sdone
	EXP4
	VCVTPD2PSY Y4, X0
	VMOVUPS    X0, (SI)

	// sum += e, one lane at a time in index order.
	VADDSD       X4, X14, X14
	VPERMILPD    $1, X4, X5
	VADDSD       X5, X14, X14
	VEXTRACTF128 $1, Y4, X5
	VADDSD       X5, X14, X14
	VPERMILPD    $1, X5, X5
	VADDSD       X5, X14, X14

	ADDQ $16, SI
	INCQ DX
	JMP  sloop

sdone:
	SHLQ       $2, DX
	MOVQ       DX, n+40(FP)
	VMOVSD     X14, s+48(FP)
	VZEROUPPER
	RET
