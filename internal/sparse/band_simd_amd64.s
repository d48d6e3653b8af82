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

// Row-lane AVX2 body of the tridiagonal band sweep at every moment order
// (see fuseBlockBand for the layout and band_simd_amd64.go for the Go
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
// The n mod 4 rows after the last whole group run as one masked group:
// the same per-lane sequence with every operand loaded, and every state
// and accumulator cell stored, by vmaskmovpd under a mask of the first
// n mod 4 lanes (Y5). Masked-off lanes neither load nor store, so the
// group reads no cell past the range's right neighbour and writes no
// cell outside the range: the neighbouring ranges of a team, the padding
// cells and the caller's slices past row n stay untouched.
//
// Per 4-row group the band and diagonal vectors are loaded once, moments
// 0 and 1 are peeled, and every moment j >= 2 runs the one uniform step
// MJ, whose centre values x_{j-2}[i], x_{j-1}[i], x_j[i] stay in
// registers so each state cell is loaded once. The moment loop takes the
// uniform steps two at a time, so it costs one branch per pair: an odd
// order runs (order-1)/2 pairs after the peeled moments, an even order
// one more single step first, and orders up to 2 a short loop of their
// own. Each loop shape is expanded twice from the same macros, with and
// without the fused accumulation, so neither pays a branch for the
// other.
//
// Registers: SI = &cur plane j at row i (it walks down the planes of a
// group, then rewinds to plane 0 of the next), DI = the byte distance
// from cur to next and R12 from cur to the accumulators (which lie at the
// state plane stride), so plane j's next and accumulator cells are
// (SI)(DI*1) and (SI)(R12*1); BX = plane stride in bytes, R9 = the
// rewind order·stride − 32, R8 = &sub[i] (the band's diagonal and
// super-diagonal planes follow at BX and 2·BX), R10/R11 = &d1/&d2 at the
// first row, AX = the byte offset of row i from the first row, R14 = the
// pairs per group (the order, for orders up to 2), R13 = the pairs left,
// CX = the groups left. Y6-Y8 hold the centre values, Y9-Y13 the d2, d1,
// U, D and L vectors, Y14 the weight w.

// tailMask<> holds three all-ones lanes and three zero lanes: the 32
// bytes at offset 8·(3−r) are the vmaskmovpd mask of the first r lanes.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// TAILMASK loads the mask of the first r lanes (r = 1..3, in register r,
// which it clobbers) into Y5, using t as scratch.
#define TAILMASK(r, t) \
	NEGQ    r                     \
	LEAQ    tailMask<>+24(SB), t  \
	VMOVDQU (t)(r*8), Y5

// BANDLOAD loads the group's band and diagonal vectors.
#define BANDLOAD \
	VMOVUPD (R8), Y13        \ // L
	VMOVUPD (R8)(BX*1), Y12  \ // D
	VMOVUPD (R8)(BX*2), Y11  \ // U
	VMOVUPD (R10)(AX*1), Y10 \ // d1
	VMOVUPD (R11)(AX*1), Y9     // d2

// STEP computes the band sums of rows i..i+3 of the current plane into
// Y0, loading the plane's centre cells into c.
#define STEP(c) \
	VMULPD  -8(SI), Y13, Y4 \
	VADDPD  Y4, Y15, Y0     \
	VMOVUPD (SI), c         \
	VMULPD  c, Y12, Y4      \
	VADDPD  Y4, Y0, Y0      \
	VMULPD  8(SI), Y11, Y4  \
	VADDPD  Y4, Y0, Y0

// COUPLE adds one order-coupling term, Y0 += d·x.
#define COUPLE(x, d) \
	VMULPD x, d, Y4 \
	VADDPD Y4, Y0, Y0

// M0 computes and stores moment 0, its centre into c.
#define M0(c) \
	STEP(c) \
	VMOVUPD Y0, (SI)(DI*1)

// M1 steps to plane 1 and computes and stores moment 1 with centre c and
// x_0 in p1.
#define M1(c, p1) \
	ADDQ    BX, SI  \
	STEP(c)         \
	COUPLE(p1, Y10) \
	VMOVUPD Y0, (SI)(DI*1)

// MJ steps to the next plane j >= 2 and computes and stores its moment
// with centre c and the lower moments' centres p1 = x_{j-1}, p2 = x_{j-2}.
#define MJ(c, p1, p2) \
	ADDQ    BX, SI  \
	STEP(c)         \
	COUPLE(p1, Y10) \
	COUPLE(p2, Y9)  \
	VMOVUPD Y0, (SI)(DI*1)

// ACC adds w·s into the current plane's accumulator, a_j[i..i+3] +=
// w*s: one rounding for the product and one for the sum, the scalar
// sequence.
#define ACC \
	VMULPD  Y0, Y14, Y4         \
	VADDPD  (SI)(R12*1), Y4, Y4 \
	VMOVUPD Y4, (SI)(R12*1)

// PAIR runs two uniform steps from x_{j-1} in Y7 and x_{j-2} in Y6 and
// leaves x_{j+1} in Y7 and x_j in Y6 for the next pair; PAIRACC also
// accumulates both.
#define PAIR \
	MJ(Y8, Y7, Y6)  \
	MJ(Y6, Y8, Y7)  \
	VMOVAPD Y6, Y7  \
	VMOVAPD Y8, Y6

#define PAIRACC \
	MJ(Y8, Y7, Y6)  \
	ACC             \
	MJ(Y6, Y8, Y7)  \
	ACC             \
	VMOVAPD Y6, Y7  \
	VMOVAPD Y8, Y6

// MBANDLOAD, MSTEP, MSTORE and MACC are BANDLOAD, STEP, the state
// store and ACC of the masked tail group: each memory operand goes
// through a vmaskmovpd under Y5 (Y1 holds the loaded operand), and the
// arithmetic is unchanged.
#define MBANDLOAD \
	VMASKMOVPD (R8), Y5, Y13        \
	VMASKMOVPD (R8)(BX*1), Y5, Y12  \
	VMASKMOVPD (R8)(BX*2), Y5, Y11  \
	VMASKMOVPD (R10)(AX*1), Y5, Y10 \
	VMASKMOVPD (R11)(AX*1), Y5, Y9

#define MSTEP(c) \
	VMASKMOVPD -8(SI), Y5, Y1 \
	VMULPD     Y1, Y13, Y4    \
	VADDPD     Y4, Y15, Y0    \
	VMASKMOVPD (SI), Y5, c    \
	VMULPD     c, Y12, Y4     \
	VADDPD     Y4, Y0, Y0     \
	VMASKMOVPD 8(SI), Y5, Y1  \
	VMULPD     Y1, Y11, Y4    \
	VADDPD     Y4, Y0, Y0

#define MSTORE \
	VMASKMOVPD Y0, Y5, (SI)(DI*1)

#define MACC \
	VMULPD     Y0, Y14, Y4          \
	VMASKMOVPD (SI)(R12*1), Y5, Y1  \
	VADDPD     Y1, Y4, Y4           \
	VMASKMOVPD Y4, Y5, (SI)(R12*1)

// NEXTGROUP rewinds to plane 0, steps every row cursor to the next 4-row
// group and loops to label while groups remain.
#define NEXTGROUP(label) \
	SUBQ R9, SI  \
	ADDQ $32, R8 \
	ADDQ $32, AX \
	DECQ CX      \
	JNZ  label

// func bandLanesAVX2(n int, band, cur, next *float64, stride, order int, d1, d2, acc *float64, w float64)
TEXT ·bandLanesAVX2(SB), NOSPLIT, $0-80
	MOVQ n+0(FP), CX
	MOVQ band+8(FP), R8
	MOVQ cur+16(FP), SI
	MOVQ next+24(FP), DI
	MOVQ stride+32(FP), BX
	MOVQ order+40(FP), R14
	MOVQ d1+48(FP), R10
	MOVQ d2+56(FP), R11
	MOVQ acc+64(FP), R12
	VBROADCASTSD w+72(FP), Y14
	XORQ AX, AX
	SHLQ $3, BX
	MOVQ R14, R9
	IMULQ BX, R9
	SUBQ $32, R9
	SUBQ SI, DI
	SUBQ SI, R12
	VXORPD Y15, Y15, Y15
	SHRQ $2, CX
	JZ   tail
	CMPQ R14, $2
	JLE  low
	MOVQ R14, DX
	SHRQ $1, R14             // pairs: (order-1)/2 odd, order/2 - 1 even
	TESTQ $1, DX
	JNZ  odd
	DECQ R14
	MOVQ acc+64(FP), DX
	TESTQ DX, DX
	JNZ  aeven

even:
	BANDLOAD
	MOVQ R14, R13
	M0(Y8)
	M1(Y6, Y8)
	MJ(Y7, Y6, Y8)

epair:
	PAIR
	DECQ R13
	JNZ  epair
	NEXTGROUP(even)
	JMP  tail

aeven:
	BANDLOAD
	MOVQ R14, R13
	M0(Y8)
	ACC
	M1(Y6, Y8)
	ACC
	MJ(Y7, Y6, Y8)
	ACC

aepair:
	PAIRACC
	DECQ R13
	JNZ  aepair
	NEXTGROUP(aeven)
	JMP  tail

odd:
	MOVQ acc+64(FP), DX
	TESTQ DX, DX
	JNZ  aodd

oloop:
	BANDLOAD
	MOVQ R14, R13
	M0(Y6)
	M1(Y7, Y6)

opair:
	PAIR
	DECQ R13
	JNZ  opair
	NEXTGROUP(oloop)
	JMP  tail

aodd:
	BANDLOAD
	MOVQ R14, R13
	M0(Y6)
	ACC
	M1(Y7, Y6)
	ACC

aopair:
	PAIRACC
	DECQ R13
	JNZ  aopair
	NEXTGROUP(aodd)
	JMP  tail

low:
	MOVQ acc+64(FP), DX
	TESTQ DX, DX
	JNZ  alow

lloop:
	BANDLOAD
	M0(Y6)
	TESTQ R14, R14
	JZ   lnext
	M1(Y7, Y6)
	CMPQ R14, $1
	JEQ  lnext
	MJ(Y8, Y7, Y6)

lnext:
	NEXTGROUP(lloop)
	JMP  tail

alow:
	BANDLOAD
	M0(Y6)
	ACC
	TESTQ R14, R14
	JZ   alnext
	M1(Y7, Y6)
	ACC
	CMPQ R14, $1
	JEQ  alnext
	MJ(Y8, Y7, Y6)
	ACC

alnext:
	NEXTGROUP(alow)

// The masked group of the last n mod 4 rows: the row cursors already
// point at it. One moment per loop trip, the centre values rotating
// through Y6-Y8; DX = acc selects the accumulation, R13 counts the
// moments left.
tail:
	MOVQ n+0(FP), CX
	ANDQ $3, CX
	JZ   done
	TAILMASK(CX, DX)
	MOVQ order+40(FP), R13
	MOVQ acc+64(FP), DX
	MBANDLOAD
	MSTEP(Y6)
	MSTORE
	TESTQ DX, DX
	JZ   tm1
	MACC

tm1:
	TESTQ R13, R13
	JZ   done
	ADDQ BX, SI
	MSTEP(Y7)
	COUPLE(Y6, Y10)
	MSTORE
	TESTQ DX, DX
	JZ   tm2
	MACC

tm2:
	DECQ R13
	JZ   done

tmj:
	ADDQ BX, SI
	MSTEP(Y8)
	COUPLE(Y7, Y10)
	COUPLE(Y6, Y9)
	MSTORE
	TESTQ DX, DX
	JZ   tmnext
	MACC

tmnext:
	VMOVAPD Y7, Y6
	VMOVAPD Y8, Y7
	DECQ R13
	JNZ  tmj

done:
	VZEROUPPER
	RET

// func planeAccAVX2(n int, next *float64, stride, planes int, acc *float64, accStride int, w float64)
//
// One plan's accumulation pass over n rows of planes consecutive next
// planes, plane by plane: a_j[i] += w*next_j[i], the multi-plan companion
// of bandLanesAVX2. next and acc point at the first row of plane 0; the
// planes lie stride and accStride words apart. The n mod 4 rows after
// the last whole group of each plane run masked (see bandLanesAVX2).
TEXT ·planeAccAVX2(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ next+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ planes+24(FP), R9
	MOVQ acc+32(FP), R12
	MOVQ accStride+40(FP), R14
	VBROADCASTSD w+48(FP), Y14
	SHLQ $3, BX
	SHLQ $3, R14
	TESTQ R9, R9
	JZ   pdone
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   pgroups
	MOVQ R11, R13
	TAILMASK(R13, DX)

pgroups:
	SHRQ $2, CX

pplane:
	MOVQ SI, DI
	MOVQ R12, DX
	MOVQ CX, R10
	TESTQ R10, R10
	JZ   ptail

prow:
	VMULPD  (DI), Y14, Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ R10
	JNZ  prow

ptail:
	TESTQ R11, R11
	JZ   pnext
	VMASKMOVPD (DI), Y5, Y1
	VMULPD     Y1, Y14, Y0
	VMASKMOVPD (DX), Y5, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD Y0, Y5, (DX)

pnext:
	ADDQ BX, SI
	ADDQ R14, R12
	DECQ R9
	JNZ  pplane

pdone:
	VZEROUPPER
	RET
