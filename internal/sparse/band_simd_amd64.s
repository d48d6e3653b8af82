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

// ROW3 computes one tridiagonal row of the order-3 interleaved sweep into
// Y6 = [s0 s1 s2 s3], the vector form of fuseBlock3Band's scalar loop.
// Lane j runs the scalar loop's exact operation sequence:
//
//	s_j  = 0 + v0*cw[j]          (Y15 is kept zero)
//	s_j += v1*cw[4+j]
//	s_j += v2*cw[8+j]
//	s_j += d1*cw[3+j]   lanes 1..3 only (vblendpd keeps lane 0)
//	s_j += d2*cw[2+j]   lanes 2..3 only
//
// Every step is a separate vmulpd+vaddpd — never an FMA — so each lane
// rounds exactly like the scalar mulsd/addsd chain and the results are
// bitwise identical to the Go loop. The d1/d2 terms use vpermpd lane
// shifts of cw[4:8]; the shifted-in low lanes are junk but blended away.
//
// In: SI=bval row triple, DI=cur window (cur4[i*4]), R8=d1[i], R9=d2[i].
// Uses Y1-Y8, leaves Y15 zero.
#define ROW3 \
	VMOVUPD      (DI), Y1         \ // cw[0:4]
	VMOVUPD      32(DI), Y2       \ // cw[4:8]
	VMOVUPD      64(DI), Y3       \ // cw[8:12]
	VBROADCASTSD (SI), Y4         \
	VMULPD       Y1, Y4, Y5       \
	VADDPD       Y5, Y15, Y6      \
	VBROADCASTSD 8(SI), Y4        \
	VMULPD       Y2, Y4, Y5       \
	VADDPD       Y5, Y6, Y6       \
	VBROADCASTSD 16(SI), Y4       \
	VMULPD       Y3, Y4, Y5       \
	VADDPD       Y5, Y6, Y6       \
	VBROADCASTSD (R8), Y4         \
	VPERMPD      $0x90, Y2, Y7    \ // [cw4 cw4 cw5 cw6]
	VMULPD       Y7, Y4, Y5       \
	VADDPD       Y5, Y6, Y8       \
	VBLENDPD     $0x0E, Y8, Y6, Y6 \
	VBROADCASTSD (R9), Y4         \
	VPERMPD      $0x40, Y2, Y7    \ // [cw4 cw4 cw4 cw5]
	VMULPD       Y7, Y4, Y5       \
	VADDPD       Y5, Y6, Y8       \
	VBLENDPD     $0x0C, Y8, Y6, Y6

// func bandTri3AVX2(n int, bval, cur, next, d1, d2 *float64)
TEXT ·bandTri3AVX2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ bval+8(FP), SI
	MOVQ cur+16(FP), DI
	MOVQ next+24(FP), DX
	MOVQ d1+32(FP), R8
	MOVQ d2+40(FP), R9
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JZ   done

loop:
	ROW3
	VMOVUPD Y6, (DX)
	ADDQ $24, SI
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// func bandTri3AccAVX2(n int, bval, cur, next, d1, d2, a0, a1, a2, a3 *float64, w float64)
TEXT ·bandTri3AccAVX2(SB), NOSPLIT, $0-88
	MOVQ n+0(FP), CX
	MOVQ bval+8(FP), SI
	MOVQ cur+16(FP), DI
	MOVQ next+24(FP), DX
	MOVQ d1+32(FP), R8
	MOVQ d2+40(FP), R9
	MOVQ a0+48(FP), R10
	MOVQ a1+56(FP), R11
	MOVQ a2+64(FP), R12
	MOVQ a3+72(FP), R13
	VBROADCASTSD w+80(FP), Y14
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JZ   accdone

accloop:
	ROW3
	VMOVUPD Y6, (DX)

	// Poisson accumulation a_j[i] += w*s_j: one rounding for the product
	// (vmulpd) and one scalar add per planar accumulator lane, exactly
	// the scalar kernel's sequence. VEX encodings throughout — a legacy
	// movsd/addsd here would force an SSE/AVX state transition per row.
	VMULPD       Y6, Y14, Y5      // [w*s0 w*s1 w*s2 w*s3]
	VEXTRACTF128 $1, Y5, X7       // [w*s2 w*s3]
	VADDSD       (R10), X5, X9
	VMOVSD       X9, (R10)
	VUNPCKHPD    X5, X5, X8
	VADDSD       (R11), X8, X9
	VMOVSD       X9, (R11)
	VADDSD       (R12), X7, X9
	VMOVSD       X9, (R12)
	VUNPCKHPD    X7, X7, X8
	VADDSD       (R13), X8, X9
	VMOVSD       X9, (R13)

	ADDQ $24, SI
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  accloop

accdone:
	VZEROUPPER
	RET
