//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Row-lane AVX2 bodies of the order-3 tridiagonal band sweep (see
// fuseBlock3Band for the layout and band_simd_amd64.go for the Go
// contracts). Each ymm holds four consecutive rows of one moment plane,
// so lane k of moment j executes the scalar loop's exact operation
// sequence for row i+k:
//
//	s  = +0 + L[i]·x_j[i-1]     (Y15 is kept zero)
//	s += D[i]·x_j[i]
//	s += U[i]·x_j[i+1]
//	s += d1[i]·x_{j-1}[i]       j >= 1
//	s += d2[i]·x_{j-2}[i]       j >= 2
//
// Every step is a separate vmulpd+vaddpd — never an FMA — so each lane
// rounds exactly like the scalar mulsd/addsd chain and the results are
// bitwise identical to the Go loop and the serial reference. No lane
// permutes, no blends: the neighbour rows are plain unaligned loads one
// cell left and right in the same plane.
//
// Registers shared by the bodies: SI = &cur plane 0 at row i, DI = &next
// plane 0 at row i, BX = plane stride in bytes, DX = 3·BX, R8 = &sub[i]
// (the band's diagonal and super-diagonal planes follow at BX and 2·BX),
// R10 = d1 base, R11 = d2 base, AX = byte offset of row i into the
// row-indexed arrays, CX = remaining 4-row groups.

// LANES computes the four moment sums of rows i..i+3 into Y0..Y3 and
// stores them to the next planes. Uses Y4-Y13; Y6-Y8 keep the centre
// values x_0[i], x_1[i], x_2[i] for the order-coupling terms.
#define LANES \
	VMOVUPD (R8), Y13                \ // L
	VMOVUPD (R8)(BX*1), Y12          \ // D
	VMOVUPD (R8)(BX*2), Y11          \ // U
	VMOVUPD (R10)(AX*1), Y10         \ // d1
	VMOVUPD (R11)(AX*1), Y9          \ // d2
	VMULPD  -8(SI), Y13, Y4          \ // moment 0
	VADDPD  Y4, Y15, Y0              \
	VMOVUPD (SI), Y6                 \
	VMULPD  Y6, Y12, Y4              \
	VADDPD  Y4, Y0, Y0               \
	VMULPD  8(SI), Y11, Y4           \
	VADDPD  Y4, Y0, Y0               \
	VMOVUPD Y0, (DI)                 \
	VMULPD  -8(SI)(BX*1), Y13, Y5    \ // moment 1
	VADDPD  Y5, Y15, Y1              \
	VMOVUPD (SI)(BX*1), Y7           \
	VMULPD  Y7, Y12, Y5              \
	VADDPD  Y5, Y1, Y1               \
	VMULPD  8(SI)(BX*1), Y11, Y5     \
	VADDPD  Y5, Y1, Y1               \
	VMULPD  Y6, Y10, Y5              \
	VADDPD  Y5, Y1, Y1               \
	VMOVUPD Y1, (DI)(BX*1)           \
	VMULPD  -8(SI)(BX*2), Y13, Y4    \ // moment 2
	VADDPD  Y4, Y15, Y2              \
	VMOVUPD (SI)(BX*2), Y8           \
	VMULPD  Y8, Y12, Y4              \
	VADDPD  Y4, Y2, Y2               \
	VMULPD  8(SI)(BX*2), Y11, Y4     \
	VADDPD  Y4, Y2, Y2               \
	VMULPD  Y7, Y10, Y4              \
	VADDPD  Y4, Y2, Y2               \
	VMULPD  Y6, Y9, Y4               \
	VADDPD  Y4, Y2, Y2               \
	VMOVUPD Y2, (DI)(BX*2)           \
	VMULPD  -8(SI)(DX*1), Y13, Y5    \ // moment 3
	VADDPD  Y5, Y15, Y3              \
	VMULPD  (SI)(DX*1), Y12, Y5      \
	VADDPD  Y5, Y3, Y3               \
	VMULPD  8(SI)(DX*1), Y11, Y5     \
	VADDPD  Y5, Y3, Y3               \
	VMULPD  Y8, Y10, Y5              \
	VADDPD  Y5, Y3, Y3               \
	VMULPD  Y7, Y9, Y5               \
	VADDPD  Y5, Y3, Y3               \
	VMOVUPD Y3, (DI)(DX*1)

// ACC adds w·s into one accumulator plane, a[i..i+3] += w*s: one
// rounding for the product and one for the sum, the scalar sequence.
#define ACC(s, a) \
	VMULPD  s, Y14, Y4        \
	VADDPD  (a)(AX*1), Y4, Y4 \
	VMOVUPD Y4, (a)(AX*1)

// ADVANCE steps every row cursor to the next 4-row group.
#define ADVANCE \
	ADDQ $32, R8 \
	ADDQ $32, SI \
	ADDQ $32, DI \
	ADDQ $32, AX

// func bandLanesAVX2(n int, band, cur, next *float64, stride int, d1, d2 *float64)
TEXT ·bandLanesAVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ band+8(FP), R8
	MOVQ cur+16(FP), SI
	MOVQ next+24(FP), DI
	MOVQ stride+32(FP), BX
	MOVQ d1+40(FP), R10
	MOVQ d2+48(FP), R11
	SHLQ $3, BX
	LEAQ (BX)(BX*2), DX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15
	SHRQ $2, CX
	JZ   done

loop:
	LANES
	ADVANCE
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// func bandLanesAccAVX2(n int, band, cur, next *float64, stride int, d1, d2, a0, a1, a2, a3 *float64, w float64)
TEXT ·bandLanesAccAVX2(SB), NOSPLIT, $0-96
	MOVQ n+0(FP), CX
	MOVQ band+8(FP), R8
	MOVQ cur+16(FP), SI
	MOVQ next+24(FP), DI
	MOVQ stride+32(FP), BX
	MOVQ d1+40(FP), R10
	MOVQ d2+48(FP), R11
	MOVQ a0+56(FP), R9
	MOVQ a1+64(FP), R12
	MOVQ a2+72(FP), R13
	MOVQ a3+80(FP), R14
	VBROADCASTSD w+88(FP), Y14
	SHLQ $3, BX
	LEAQ (BX)(BX*2), DX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15
	SHRQ $2, CX
	JZ   accdone

accloop:
	LANES
	ACC(Y0, R9)
	ACC(Y1, R12)
	ACC(Y2, R13)
	ACC(Y3, R14)
	ADVANCE
	DECQ CX
	JNZ  accloop

accdone:
	VZEROUPPER
	RET

// func planeAcc4AVX2(n int, next *float64, stride int, a0, a1, a2, a3 *float64, w float64)
//
// One plan's accumulation pass over n rows (a multiple of 4) of the four
// next planes: a_j[i] += w*next_j[i], the multi-plan companion of
// bandLanesAVX2.
TEXT ·planeAcc4AVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ next+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ a0+24(FP), R9
	MOVQ a1+32(FP), R12
	MOVQ a2+40(FP), R13
	MOVQ a3+48(FP), R10
	VBROADCASTSD w+56(FP), Y14
	SHLQ $3, BX
	LEAQ (BX)(BX*2), DX
	XORQ AX, AX
	SHRQ $2, CX
	JZ   pdone

ploop:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (SI)(BX*2), Y2
	VMOVUPD (SI)(DX*1), Y3
	ACC(Y0, R9)
	ACC(Y1, R12)
	ACC(Y2, R13)
	ACC(Y3, R10)
	ADDQ $32, SI
	ADDQ $32, AX
	DECQ CX
	JNZ  ploop

pdone:
	VZEROUPPER
	RET
