#include "textflag.h"

// func sqDist8AVX(p []float64, blk []float64, out *[8]float64)
//
// out[j] = Σ_i (blk[8*i+j] - p[i])², each lane adding its squares in
// index order from +0: per dimension one broadcast of p[i], a subtraction,
// a multiplication and an addition per four lanes, no fused multiply-add.
// The caller guarantees len(blk) == 8*len(p).
TEXT ·sqDist8AVX(SB), NOSPLIT, $0-56
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ blk_base+24(FP), DI
	MOVQ out+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ CX, CX
	JZ done

loop:
	VBROADCASTSD (SI), Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VSUBPD Y2, Y3, Y3 // Y3 = c[0:4] - p[i]
	VSUBPD Y2, Y4, Y4 // Y4 = c[4:8] - p[i]
	VMULPD Y3, Y3, Y3
	VMULPD Y4, Y4, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $8, SI
	ADDQ $64, DI
	DECQ CX
	JNZ loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
