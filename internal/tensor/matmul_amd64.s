#include "textflag.h"

// func matMulTiledAVX2(ar, b, or []float32, n int)
//
// Register use: SI a row, CX len(ar), DX b, DI out row, R8 row stride of
// b in bytes, R9 len(or) in bytes, BX bytes covered by 64-column blocks,
// R10 column byte offset, R11 a cursor, R12 b cursor, R13 k countdown.
// Y0-Y7 accumulate, Y8 holds the broadcast a[k], Y9-Y12 hold products and
// X13 holds +0 for the zero-skip compare.
TEXT ·matMulTiledAVX2(SB), NOSPLIT, $0-80
	MOVQ   ar_base+0(FP), SI
	MOVQ   ar_len+8(FP), CX
	MOVQ   b_base+24(FP), DX
	MOVQ   or_base+48(FP), DI
	MOVQ   or_len+56(FP), R9
	MOVQ   n+72(FP), R8
	SHLQ   $2, R8
	SHLQ   $2, R9
	MOVQ   R9, BX
	ANDQ   $-256, BX
	XORQ   R10, R10
	VXORPS X13, X13, X13

block64:
	CMPQ   R10, BX
	JGE    block8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, R11
	LEAQ   (DX)(R10*1), R12
	MOVQ   CX, R13

k64:
	TESTQ    R13, R13
	JZ       store64
	VUCOMISS (R11), X13
	JPS      mul64       // a[k] is NaN: unordered, so not skipped
	JEQ      next64      // a[k] is ±0: skipped, as Go's av != 0
mul64:
	VBROADCASTSS (R11), Y8
	VMULPS       (R12), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R12), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(R12), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(R12), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       128(R12), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       160(R12), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       192(R12), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       224(R12), Y8, Y12
	VADDPS       Y12, Y7, Y7
next64:
	ADDQ $4, R11
	ADDQ R8, R12
	DECQ R13
	JMP  k64

store64:
	VMOVUPS Y0, (DI)(R10*1)
	VMOVUPS Y1, 32(DI)(R10*1)
	VMOVUPS Y2, 64(DI)(R10*1)
	VMOVUPS Y3, 96(DI)(R10*1)
	VMOVUPS Y4, 128(DI)(R10*1)
	VMOVUPS Y5, 160(DI)(R10*1)
	VMOVUPS Y6, 192(DI)(R10*1)
	VMOVUPS Y7, 224(DI)(R10*1)
	ADDQ    $256, R10
	JMP     block64

block8:
	CMPQ   R10, R9
	JGE    done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R11
	LEAQ   (DX)(R10*1), R12
	MOVQ   CX, R13

k8:
	TESTQ    R13, R13
	JZ       store8
	VUCOMISS (R11), X13
	JPS      mul8
	JEQ      next8
mul8:
	VBROADCASTSS (R11), Y8
	VMULPS       (R12), Y8, Y9
	VADDPS       Y9, Y0, Y0
next8:
	ADDQ $4, R11
	ADDQ R8, R12
	DECQ R13
	JMP  k8

store8:
	VMOVUPS Y0, (DI)(R10*1)
	ADDQ    $32, R10
	JMP     block8

done:
	VZEROUPPER
	RET

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
