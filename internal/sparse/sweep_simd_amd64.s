//go:build amd64

#include "textflag.h"

// AVX2 body of the CSR32 fused kernel at every moment order (Go contract
// in sweep_simd_amd64.go; the band format's bodies, and planeAccAVX2,
// which accumulates both formats, are in band_simd_amd64.s, under the
// same rules).
//
// Bitwise rules: one ymm holds the sums of four moments 4g+l of a row,
// and every lane executes the scalar loop's exact operation sequence —
// a separate vmulpd+vaddpd per term (never an FMA), the row sum seeded
// from an explicit +0 (vxorpd), the d1/d2 coupling terms blended onto
// moments >= 1 / >= 2 in group 0 (later groups take both), and only VEX
// encodings in the scalar tails (legacy SSE would pay an AVX state
// transition per row). Work is reordered only between different output
// elements, so results are bitwise identical to the Go loops and the
// serial reference.

// COUPLE0 applies the order-coupling diagonal terms to the sums of a
// row's group 0 in Y6 = [s0 s1 s2 s3], given the row's own state window
// civ = cur[i*P : i*P+4]:
//
//	s_j += d1*civ[j-1]   lanes 1..3 (vblendpd keeps lane 0)
//	s_j += d2*civ[j-2]   lanes 2..3
//
// exactly the scalar kernel's civ sequence. The vpermpd lane shifts pull
// junk into the low lanes, which the blends discard.
//
// In: R13 = &cur[i*P], R8 = &d1[i], R9 = &d2[i]. Uses Y2, Y4, Y5, Y7, Y8.
#define COUPLE0 \
	VMOVUPD      (R13), Y2        \ // civ = cur[i*P : i*P+4]
	VBROADCASTSD (R8), Y4         \
	VPERMPD      $0x90, Y2, Y7    \ // [c0 c0 c1 c2]
	VMULPD       Y7, Y4, Y5       \
	VADDPD       Y5, Y6, Y8       \
	VBLENDPD     $0x0E, Y8, Y6, Y6 \
	VBROADCASTSD (R9), Y4         \
	VPERMPD      $0x40, Y2, Y7    \ // [c0 c0 c0 c1]
	VMULPD       Y7, Y4, Y5       \
	VADDPD       Y5, Y6, Y8       \
	VBLENDPD     $0x0C, Y8, Y6, Y6

// func csrLanesAVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur, self, next, d1, d2 *float64, groups int)
//
// n rows of the compact-index CSR recursion, one four-moment group at a
// time: per stored entry, broadcast the value and gather the source
// state's 32-byte group g through the uint32 column index (col·P·8 + 32g
// is the byte offset into cur). The row's values and columns are walked
// once per group, from L1 after the first walk.
TEXT ·csrLanesAVX2(SB), NOSPLIT, $0-80
	MOVQ rowPtr+8(FP), SI
	MOVQ col32+16(FP), AX
	MOVQ val+24(FP), BX
	MOVQ cur+32(FP), DI
	MOVQ self+40(FP), R13
	MOVQ next+48(FP), DX
	MOVQ d1+56(FP), R8
	MOVQ d2+64(FP), R9
	MOVQ groups+72(FP), R15
	SHLQ $5, R15          // P*8: bytes per state, 32 per group

	// Advance the value/column row bases to the first row's entries; from
	// there they step contiguously across rows.
	MOVQ (SI), R10        // rowPtr[lo]
	LEAQ (BX)(R10*8), BX
	LEAQ (AX)(R10*4), AX
	MOVQ n+0(FP), R10     // rows left

rowloop:
	MOVQ 8(SI), CX
	SUBQ (SI), CX         // entries in this row
	ADDQ $8, SI
	LEAQ (BX)(CX*8), BX   // the row's end: entries are walked by a
	LEAQ (AX)(CX*4), AX   // negative index up to it

	// Group 0, whose coupling terms need the blends.
	VXORPD Y6, Y6, Y6     // s = [+0 +0 +0 +0]
	MOVQ CX, R11
	NEGQ R11
	JZ   couple

entry:
	VBROADCASTSD (BX)(R11*8), Y4
	MOVL (AX)(R11*4), R12 // column (zero-extended)
	IMULQ R15, R12        // the state's interleaved moments
	VMOVUPD (DI)(R12*1), Y1
	VMULPD  Y1, Y4, Y5
	VADDPD  Y5, Y6, Y6
	INCQ R11
	JNZ  entry

couple:
	COUPLE0
	VMOVUPD Y6, (DX)
	MOVQ $32, R14         // byte offset 32g of group g
	CMPQ R14, R15
	JEQ  nextrow

grouploop:
	VXORPD Y6, Y6, Y6
	MOVQ CX, R11
	NEGQ R11
	JZ   upper

gentry:
	VBROADCASTSD (BX)(R11*8), Y4
	MOVL (AX)(R11*4), R12
	IMULQ R15, R12
	ADDQ R14, R12
	VMOVUPD (DI)(R12*1), Y1
	VMULPD  Y1, Y4, Y5
	VADDPD  Y5, Y6, Y6
	INCQ R11
	JNZ  gentry

upper: // every lane j takes d1*civ[j-1], then d2*civ[j-2]
	VBROADCASTSD (R8), Y4
	VMOVUPD -8(R13)(R14*1), Y2
	VMULPD  Y2, Y4, Y5
	VADDPD  Y5, Y6, Y6
	VBROADCASTSD (R9), Y4
	VMOVUPD -16(R13)(R14*1), Y2
	VMULPD  Y2, Y4, Y5
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (DX)(R14*1)
	ADDQ $32, R14
	CMPQ R14, R15
	JNE  grouploop

nextrow:
	ADDQ R15, R13
	ADDQ R15, DX
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  rowloop
	VZEROUPPER
	RET
