#include "textflag.h"

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func linearKernel4x16(a *float32, lda int, p *float32, kc int, c *float32, ldc int, resume bool)
//
// Computes a 4-row × 16-column tile of c = a·wᵀ from kc steps of a
// packed Wᵀ panel p (p[kk*16+col]). Each lane accumulates
// acc = acc + p[kk]*a[kk] for kk ascending, with the product rounded
// by VMULPS before VADDPS adds it (no FMA): the float32 rounding
// sequence of the scalar Go loop. acc starts at +0, or at the tile's
// current contents of c when resume is set (a later k block).
TEXT ·linearKernel4x16(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $2, AX
	LEAQ (SI)(AX*1), R8
	LEAQ (SI)(AX*2), R9
	LEAQ (R9)(AX*1), R10
	MOVQ p+16(FP), DI
	MOVQ kc+24(FP), BX
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), AX
	SHLQ $2, AX
	LEAQ (DX)(AX*1), R11
	LEAQ (DX)(AX*2), R12
	LEAQ (R12)(AX*1), R13

	CMPB resume+48(FP), $0
	JNE  load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  start

load:
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (R11), Y2
	VMOVUPS 32(R11), Y3
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	VMOVUPS (R13), Y6
	VMOVUPS 32(R13), Y7

start:
	XORQ CX, CX

loop:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9

	VBROADCASTSS (SI)(CX*4), Y10
	VMULPS       Y10, Y8, Y11
	VMULPS       Y10, Y9, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1

	VBROADCASTSS (R8)(CX*4), Y13
	VMULPS       Y13, Y8, Y14
	VMULPS       Y13, Y9, Y11
	VADDPS       Y14, Y2, Y2
	VADDPS       Y11, Y3, Y3

	VBROADCASTSS (R9)(CX*4), Y10
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y14
	VADDPS       Y12, Y4, Y4
	VADDPS       Y14, Y5, Y5

	VBROADCASTSS (R10)(CX*4), Y13
	VMULPS       Y13, Y8, Y11
	VMULPS       Y13, Y9, Y12
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

	ADDQ $64, DI
	INCQ CX
	CMPQ CX, BX
	JNE  loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (R11)
	VMOVUPS Y3, 32(R11)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, (R13)
	VMOVUPS Y7, 32(R13)
	VZEROUPPER
	RET

// func packPanel4(dst, src *float32, lds, kc int)
//
// Writes kc steps of four consecutive rows of src (row stride lds) as
// dst[kk*16+r] = src[r*lds+kk], r < 4: one 4-column slice of a packed
// Wᵀ panel. Four k steps at a time go through a 4×4 transpose.
TEXT ·packPanel4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lds+16(FP), AX
	SHLQ $2, AX
	MOVQ kc+24(FP), CX
	LEAQ (SI)(AX*1), R8
	LEAQ (SI)(AX*2), R9
	LEAQ (R9)(AX*1), R10
	XORQ BX, BX

quad:
	CMPQ CX, $4
	JLT  single
	VMOVUPS   (SI)(BX*1), X0
	VMOVUPS   (R8)(BX*1), X1
	VMOVUPS   (R9)(BX*1), X2
	VMOVUPS   (R10)(BX*1), X3
	VUNPCKLPS X1, X0, X4
	VUNPCKHPS X1, X0, X5
	VUNPCKLPS X3, X2, X6
	VUNPCKHPS X3, X2, X7
	VMOVLHPS  X6, X4, X0
	VMOVHLPS  X4, X6, X1
	VMOVLHPS  X7, X5, X2
	VMOVHLPS  X5, X7, X3
	VMOVUPS   X0, (DI)
	VMOVUPS   X1, 64(DI)
	VMOVUPS   X2, 128(DI)
	VMOVUPS   X3, 192(DI)
	ADDQ      $16, BX
	ADDQ      $256, DI
	SUBQ      $4, CX
	JMP       quad

single:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (SI)(BX*1), X0
	VMOVSS (R8)(BX*1), X1
	VMOVSS (R9)(BX*1), X2
	VMOVSS (R10)(BX*1), X3
	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	ADDQ   $4, BX
	ADDQ   $64, DI
	DECQ   CX
	JMP    single

done:
	RET
