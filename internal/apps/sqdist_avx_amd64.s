#include "textflag.h"

// func sqDistBlocksAVX(p []float64, blk []float64, out []float64)
//
// out[8*b+j] = Σ_i (p[i] - blk[8*dim*b+8*i+j])², dim = len(p), for the
// len(out)/8 blocks of blk, each lane adding its squares in index order
// from +0: per dimension one broadcast of p[i], then a subtraction, a
// multiplication and an addition per four lanes, no fused multiply-add.
// Four blocks a pass while four remain — eight accumulators, Y0–Y7, fed
// by one broadcast, Y8 — then one block a pass (Y0, Y1). The caller
// guarantees len(out)%8 == 0 and len(blk) == len(out)*len(p).
TEXT ·sqDistBlocksAVX(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ blk_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), AX
	SHRQ $3, AX               // AX = blocks left
	MOVQ CX, BX
	SHLQ $6, BX               // BX = one block's bytes, 64*dim
	LEAQ (BX)(BX*2), R11      // R11 = three blocks' bytes

quad:
	CMPQ AX, $4
	JLT  single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R8
	MOVQ CX, R9
	TESTQ R9, R9
	JZ   quadstore

quadloop:
	VBROADCASTSD (R8), Y8
	VSUBPD (DI), Y8, Y9           // Y9 = p[i] - block 0's c[0:4]
	VSUBPD 32(DI), Y8, Y10
	VSUBPD (DI)(BX*1), Y8, Y11    // block 1
	VSUBPD 32(DI)(BX*1), Y8, Y12
	VSUBPD (DI)(BX*2), Y8, Y13    // block 2
	VSUBPD 32(DI)(BX*2), Y8, Y14
	VMULPD Y9, Y9, Y9
	VMULPD Y10, Y10, Y10
	VMULPD Y11, Y11, Y11
	VMULPD Y12, Y12, Y12
	VMULPD Y13, Y13, Y13
	VMULPD Y14, Y14, Y14
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y5, Y5
	VSUBPD (DI)(R11*1), Y8, Y15   // block 3
	VSUBPD 32(DI)(R11*1), Y8, Y9
	VMULPD Y15, Y15, Y15
	VMULPD Y9, Y9, Y9
	VADDPD Y15, Y6, Y6
	VADDPD Y9, Y7, Y7
	ADDQ $8, R8
	ADDQ $64, DI
	DECQ R9
	JNZ  quadloop

quadstore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	ADDQ $256, DX
	ADDQ R11, DI              // DI walked block 0; skip blocks 1–3
	SUBQ $4, AX
	JMP  quad

single:
	TESTQ AX, AX
	JZ   done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R8
	MOVQ CX, R9
	TESTQ R9, R9
	JZ   singlestore

singleloop:
	VBROADCASTSD (R8), Y8
	VSUBPD (DI), Y8, Y9
	VSUBPD 32(DI), Y8, Y10
	VMULPD Y9, Y9, Y9
	VMULPD Y10, Y10, Y10
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	ADDQ $8, R8
	ADDQ $64, DI
	DECQ R9
	JNZ  singleloop

singlestore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ $64, DX
	DECQ AX
	JMP  single

done:
	VZEROUPPER
	RET
