#include "textflag.h"

// The AVX-512 kernels: nearest's argmin and addFloats. A block is eight
// centroids laid out dimension-major (blk[8*i+j] is centroid j's
// coordinate i), so one ZMM register holds dimension i of a whole block,
// and one accumulator holds a block's eight distances. Every lane adds its
// squares in index order from +0: per dimension one broadcast of p[i],
// then per block one subtraction (p - c), one multiplication and one
// addition, no fused multiply-add and no reassociation, so every lane is
// sqDist's to the bit.

// laneIdx<> holds 0, 1, …, 7: lane j's index within a block.
DATA laneIdx<>+0(SB)/8, $0
DATA laneIdx<>+8(SB)/8, $1
DATA laneIdx<>+16(SB)/8, $2
DATA laneIdx<>+24(SB)/8, $3
DATA laneIdx<>+32(SB)/8, $4
DATA laneIdx<>+40(SB)/8, $5
DATA laneIdx<>+48(SB)/8, $6
DATA laneIdx<>+56(SB)/8, $7
GLOBL laneIdx<>(SB), RODATA|NOPTR, $64

// BLOCKS8 sets Z0–Z7 to the distances of p (SI, CX elements) to the eight
// blocks from DI on, block b at DI + b*BX (R11 = 3*BX, R12 = 5*BX,
// R13 = 7*BX), one broadcast (Z8) a dimension feeding the eight, and
// leaves DI one block on. Clobbers R8, R9, Z8–Z16.
#define BLOCKS8(label, done) \
	VXORPD Z0, Z0, Z0 \
	VXORPD Z1, Z1, Z1 \
	VXORPD Z2, Z2, Z2 \
	VXORPD Z3, Z3, Z3 \
	VXORPD Z4, Z4, Z4 \
	VXORPD Z5, Z5, Z5 \
	VXORPD Z6, Z6, Z6 \
	VXORPD Z7, Z7, Z7 \
	MOVQ SI, R8 \
	MOVQ CX, R9 \
	TESTQ R9, R9 \
	JZ   done \
label: \
	VBROADCASTSD (R8), Z8 \
	VSUBPD (DI), Z8, Z9 \
	VSUBPD (DI)(BX*1), Z8, Z10 \
	VSUBPD (DI)(BX*2), Z8, Z11 \
	VSUBPD (DI)(R11*1), Z8, Z12 \
	VSUBPD (DI)(BX*4), Z8, Z13 \
	VSUBPD (DI)(R12*1), Z8, Z14 \
	VSUBPD (DI)(R11*2), Z8, Z15 \
	VSUBPD (DI)(R13*1), Z8, Z16 \
	VMULPD Z9, Z9, Z9 \
	VMULPD Z10, Z10, Z10 \
	VMULPD Z11, Z11, Z11 \
	VMULPD Z12, Z12, Z12 \
	VMULPD Z13, Z13, Z13 \
	VMULPD Z14, Z14, Z14 \
	VMULPD Z15, Z15, Z15 \
	VMULPD Z16, Z16, Z16 \
	VADDPD Z9, Z0, Z0 \
	VADDPD Z10, Z1, Z1 \
	VADDPD Z11, Z2, Z2 \
	VADDPD Z12, Z3, Z3 \
	VADDPD Z13, Z4, Z4 \
	VADDPD Z14, Z5, Z5 \
	VADDPD Z15, Z6, Z6 \
	VADDPD Z16, Z7, Z7 \
	ADDQ $8, R8 \
	ADDQ $64, DI \
	DECQ R9 \
	JNZ  label \
done:

// BLOCK1 sets Z0 to the distances of p to the block at DI and leaves DI
// one block on. Clobbers R8, R9, Z8, Z9.
#define BLOCK1(label, done) \
	VXORPD Z0, Z0, Z0 \
	MOVQ SI, R8 \
	MOVQ CX, R9 \
	TESTQ R9, R9 \
	JZ   done \
label: \
	VBROADCASTSD (R8), Z8 \
	VSUBPD (DI), Z8, Z9 \
	VMULPD Z9, Z9, Z9 \
	VADDPD Z9, Z0, Z0 \
	ADDQ $8, R8 \
	ADDQ $64, DI \
	DECQ R9 \
	JNZ  label \
done:

// BLEND folds block accumulator Zn, whose lanes are the centroids Z19
// indexes, into the running minimum: lane by lane, Z17 (the least
// distance so far) and Z18 (its centroid) take Zn's distance and index
// where it is strictly less — an ordered compare, false for a NaN — so a
// lane keeps the first of equal distances. Z19 moves on to the next
// block's centroids (Z20 holds 8 in every lane).
#define BLEND(Zn) \
	VCMPPD $0x11, Z17, Zn, K1 \
	VMOVAPD Zn, K1, Z17 \
	VMOVDQA64 Z19, K1, Z18 \
	VPADDQ Z20, Z19, Z19

// FIRST returns centroid 0 if its distance, lane 0 of Z0, is a NaN: the
// scan keeps centroid 0 then, whatever follows. R10 is set until the first
// pass has been looked at.
#define FIRST(label) \
	TESTQ R10, R10 \
	JZ   label \
	XORL R10, R10 \
	VUCOMISD X0, X0 \
	JPS  nan0 \
label:

// func argminBlocksAVX512(p []float64, blk []float64, lanes int) (best int)
//
// best is the index of the first of the least of the distances of p to the
// lanes centroids of blk's lanes/8 blocks, as a scan finds it that starts
// from centroid 0 and moves on only to a strictly smaller distance: a NaN
// never wins, and a NaN at centroid 0 keeps 0. Eight blocks a pass while
// eight remain, then one block a pass, each block folded into a per-lane
// minimum as soon as it is computed; no distance is stored. The caller
// guarantees lanes is a positive multiple of 8 and
// len(blk) == lanes*len(p).
//
// Lane j sees the centroids j, j+8, j+16, … in index order and keeps the
// first strictly least of those that are not NaN, starting from +Inf and
// index j. Across lanes the least distance wins, and among lanes that hold
// it the lowest index. That is the scan's answer unless centroid 0's
// distance is a NaN, which FIRST returns early: otherwise centroid 0 is a
// number, the scan's answer is the first of the least non-NaN distances,
// and if that least distance is +Inf no lane moved off its start, so
// every lane holds +Inf and lane 0 holds index 0, the scan's answer.
TEXT ·argminBlocksAVX512(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ blk_base+24(FP), DI
	MOVQ CX, BX
	SHLQ $6, BX               // BX = one block's bytes, 64*len(p)
	LEAQ (BX)(BX*2), R11
	LEAQ (BX)(BX*4), R12
	LEAQ (R11)(BX*4), R13
	MOVQ lanes+48(FP), AX
	SHRQ $3, AX               // AX = blocks left
	MOVQ $0x7FF0000000000000, R10
	VPBROADCASTQ R10, Z17     // the least distance of each lane: +Inf
	VMOVDQU64 laneIdx<>(SB), Z18 // its centroid: lane j's first, j
	VMOVDQA64 Z18, Z19        // the centroids of the block being folded
	MOVQ $8, R10
	VPBROADCASTQ R10, Z20
	MOVQ $1, R10              // the first pass is not yet looked at

argoct:
	CMPQ AX, $8
	JLT  argsingle
	BLOCKS8(argoctloop, argoctloopend)
	ADDQ R13, DI              // DI walked block 0; skip blocks 1–7
	FIRST(argoctfold)
	BLEND(Z0)
	BLEND(Z1)
	BLEND(Z2)
	BLEND(Z3)
	BLEND(Z4)
	BLEND(Z5)
	BLEND(Z6)
	BLEND(Z7)
	SUBQ $8, AX
	JMP  argoct

argsingle:
	TESTQ AX, AX
	JZ   argreduce
	BLOCK1(argsingleloop, argsingleloopend)
	FIRST(argsinglefold)
	BLEND(Z0)
	DECQ AX
	JMP  argsingle

argreduce:
	// Z21 = the least of Z17's lanes, in every lane: swap halves, then
	// quarters, then neighbours, taking the minimum each time (no lane of
	// Z17 is a NaN).
	VSHUFF64X2 $0x4E, Z17, Z17, Z21
	VMINPD Z21, Z17, Z21
	VSHUFF64X2 $0xB1, Z21, Z21, Z22
	VMINPD Z22, Z21, Z21
	VPERMILPD $0x55, Z21, Z22
	VMINPD Z22, Z21, Z21
	// Z22 = the centroids of the lanes holding it, the largest int64
	// elsewhere; then its least lane the same way.
	VCMPPD $0x00, Z21, Z17, K1
	MOVQ $0x7FFFFFFFFFFFFFFF, R10
	VPBROADCASTQ R10, Z22
	VMOVDQA64 Z18, K1, Z22
	VSHUFI64X2 $0x4E, Z22, Z22, Z23
	VPMINSQ Z23, Z22, Z22
	VSHUFI64X2 $0xB1, Z22, Z22, Z23
	VPMINSQ Z23, Z22, Z22
	VPSHUFD $0x4E, Z22, Z23
	VPMINSQ Z23, Z22, Z22
	VMOVDQA64 Z22, Z1
	VMOVQ X1, best+56(FP)
	VZEROUPPER
	RET

nan0:
	MOVQ $0, best+56(FP)
	VZEROUPPER
	RET

// func addFloatsAVX512(dst []float64, src []float64)
//
// dst[i] += src[i] for i < len(src): eight elements a VADDPD while eight
// remain, then the rest in one masked VADDPD that reads and writes only
// them. Each element is one rounded addition, as in the Go loop. The
// caller guarantees len(dst) >= len(src).
TEXT ·addFloatsAVX512(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

addoct:
	CMPQ CX, $8
	JLT  addrest
	VMOVUPD (DI), Z0
	VADDPD (SI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  addoct

addrest:
	TESTQ CX, CX
	JZ   adddone
	MOVL $1, AX
	SHLL CX, AX
	DECL AX                   // AX = the low CX bits
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z0
	VADDPD (SI), Z0, K1, Z0
	VMOVUPD Z0, K1, (DI)

adddone:
	VZEROUPPER
	RET
