//go:build amd64

#include "textflag.h"

// AVX2 bodies of the order-3 interleaved fused kernels for the CSR32 and
// QBD storage formats (see sweep_simd_amd64.go for the Go contracts; the
// band format's row-lane bodies are in band_simd_amd64.s).
//
// Bitwise rules (the band kernels keep the same per-lane discipline on
// the row-lane layout, which needs no blends): the interleaved layout
// puts the four moment sums of a row in one ymm (lane j = moment j), and
// every lane executes the scalar loop's exact operation sequence — a
// separate vmulpd+vaddpd per term (never an FMA), the row sum seeded
// from an explicit +0 (vxorpd), the d1/d2 order-coupling terms masked
// onto lanes 1..3 / 2..3 with vblendpd, and only VEX encodings in the
// scalar tails (legacy SSE here would pay an AVX state transition per
// row). Work is reordered only between different output elements, which
// float64 cannot observe, so results are bitwise identical to the Go
// loops and the serial reference.

// COUPLE3 applies the order-coupling diagonal terms to the row sums in
// Y6 = [s0 s1 s2 s3], given the row's own state window civ = cur4[i*4]:
//
//	s_j += d1*civ[j-1]   lanes 1..3 (vblendpd keeps lane 0)
//	s_j += d2*civ[j-2]   lanes 2..3
//
// exactly the scalar kernels' civ sequence. The vpermpd lane shifts pull
// junk into the low lanes, which the blends discard.
//
// In: R13 = &cur4[i*4], R8 = &d1[i], R9 = &d2[i]. Uses Y2, Y4, Y5, Y7, Y8.
#define COUPLE3 \
	VMOVUPD      (R13), Y2        \ // civ = cur4[i*4 : i*4+4]
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

// func csr32Fuse3AVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur4, self, next, d1, d2 *float64)
//
// n rows of the compact-index CSR recursion: per stored entry, broadcast
// the value and gather the source state's 32-byte moment group through
// the uint32 column index (col*32 is the byte offset into cur4).
TEXT ·csr32Fuse3AVX2(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ rowPtr+8(FP), SI
	MOVQ col32+16(FP), AX
	MOVQ val+24(FP), BX
	MOVQ cur4+32(FP), DI
	MOVQ self+40(FP), R13
	MOVQ next+48(FP), DX
	MOVQ d1+56(FP), R8
	MOVQ d2+64(FP), R9
	TESTQ CX, CX
	JZ   done

	// Advance the value/column cursors to the first row's entries; from
	// there they stream contiguously across rows.
	MOVQ (SI), R10        // p = rowPtr[lo]
	LEAQ (BX)(R10*8), BX
	LEAQ (AX)(R10*4), AX

rowloop:
	MOVQ 8(SI), R11
	SUBQ R10, R11         // entries in this row
	ADDQ R11, R10         // p = rowPtr[i+1]
	ADDQ $8, SI
	VXORPD Y6, Y6, Y6     // s = [+0 +0 +0 +0]
	TESTQ R11, R11
	JZ   couple

entry:
	VBROADCASTSD (BX), Y4
	MOVL (AX), R12        // column (zero-extended)
	SHLQ $5, R12          // *32 bytes: the state's interleaved group
	VMOVUPD (DI)(R12*1), Y1
	VMULPD  Y1, Y4, Y5
	VADDPD  Y5, Y6, Y6
	ADDQ $8, BX
	ADDQ $4, AX
	DECQ R11
	JNZ  entry

couple:
	COUPLE3
	VMOVUPD Y6, (DX)
	ADDQ $32, R13
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  rowloop

done:
	VZEROUPPER
	RET

// func qbd3AVX2(nb, b int, bval, win, self, next, d1, d2 *float64)
//
// nb consecutive full interior QBD blocks of b rows each, starting at a
// block-aligned row: every row streams its dense 3b-cell window against
// a strided run of 32-byte state groups starting at the level window
// base win (constant within a block, advancing one level per block).
// Boundary levels and block-partial row ranges stay on the scalar kernel
// (see fuseBlock3QBDAVX2).
TEXT ·qbd3AVX2(SB), NOSPLIT, $0-64
	MOVQ nb+0(FP), CX
	MOVQ b+8(FP), BX
	MOVQ bval+16(FP), SI
	MOVQ win+24(FP), DI
	MOVQ self+32(FP), R13
	MOVQ next+40(FP), DX
	MOVQ d1+48(FP), R8
	MOVQ d2+56(FP), R9
	LEAQ (BX)(BX*2), R12  // cells per interior row = 3b
	TESTQ CX, CX
	JZ   done

blockloop:
	MOVQ BX, R10          // rows left in this block

rowloop:
	MOVQ DI, AX           // state cursor = window base
	MOVQ R12, R11         // cells left in this row
	VXORPD Y6, Y6, Y6     // s = [+0 +0 +0 +0]

cellloop:
	VBROADCASTSD (SI), Y4
	VMOVUPD (AX), Y1
	VMULPD  Y1, Y4, Y5
	VADDPD  Y5, Y6, Y6
	ADDQ $8, SI
	ADDQ $32, AX
	DECQ R11
	JNZ  cellloop

	COUPLE3
	VMOVUPD Y6, (DX)
	ADDQ $32, R13
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  rowloop

	// Next block: the level window slides down one level (b states).
	MOVQ BX, R11
	SHLQ $5, R11
	ADDQ R11, DI
	DECQ CX
	JNZ  blockloop

done:
	VZEROUPPER
	RET

// func sweepAcc3AVX2(n int, next, a0, a1, a2, a3 *float64, w float64)
//
// Poisson accumulation pass a_j[i] += w*s_j over n rows of the
// interleaved next buffer: one vmulpd rounding for the four products,
// then one VEX scalar add per planar accumulator lane — exactly the
// fused scalar switch's per-element sequence (the stored s_j reloads
// bit-exactly). Shared by every vector kernel's tiled kernel+acc split.
TEXT ·sweepAcc3AVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ next+8(FP), DX
	MOVQ a0+16(FP), R10
	MOVQ a1+24(FP), R11
	MOVQ a2+32(FP), R12
	MOVQ a3+40(FP), R13
	VBROADCASTSD w+48(FP), Y14
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPD (DX), Y6
	VMULPD  Y6, Y14, Y5   // [w*s0 w*s1 w*s2 w*s3]
	VEXTRACTF128 $1, Y5, X7
	VADDSD  (R10), X5, X9
	VMOVSD  X9, (R10)
	VUNPCKHPD X5, X5, X8
	VADDSD  (R11), X8, X9
	VMOVSD  X9, (R11)
	VADDSD  (R12), X7, X9
	VMOVSD  X9, (R12)
	VUNPCKHPD X7, X7, X8
	VADDSD  (R13), X8, X9
	VMOVSD  X9, (R13)
	ADDQ $32, DX
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
