package sparse

// This file implements the tridiagonal band storage of the randomization
// sweep. The paper's flagship example — the ON-OFF multiplexer, 200,001
// states — has a tridiagonal birth-death generator, and for such matrices
// the CSR kernel spends a third of its memory traffic on column indexes in
// a loop BENCH_sweep.json shows is memory-bandwidth-bound. A sweep streams
// exactly one of two storages (see Storage):
//
//   - Band: the tridiagonal window stored as three planes (sub-diagonal,
//     diagonal, super-diagonal) and no indexes. Every matrix whose
//     entries satisfy |i-j| <= 1 qualifies; diagonal and bidiagonal
//     matrices pad the missing cells with zeros. The kernel computes
//     column positions instead of loading them — zero index traffic —
//     and, on the row-lane state layout (one plane per moment at every
//     moment order, see bandPlaneStride), the AVX2 body retires four
//     consecutive rows of one moment per vector with plain contiguous
//     loads, walking the moments of each row group in one loop. Wider
//     bands and impulse sweeps take compact CSR instead, which has its
//     own vector body at every order.
//   - Compact CSR: the CSR type itself, whose column indexes are uint32;
//     the general representation.
//
// The storage is decided and built once, straight from the generator, by
// Uniformize (core.Prepare calls it), so no other representation of the
// matrix is derived or kept.
//
// Bitwise contract: band kernels add padded cells as 0.0·x products into
// running sums built from +0.0 by successive +=. In round-to-nearest such
// a sum can never be -0.0 (a+b is -0.0 only when both operands are -0.0;
// exact cancellation yields +0.0), and adding ±0.0 to any value other
// than -0.0 returns it unchanged, so for finite vectors the padded
// products are bitwise neutral and the band kernel reproduces the CSR
// kernel's per-row ascending-column accumulation exactly. Non-finite
// vector entries would break this (0.0·Inf = NaN); the solver guarantees
// finiteness (spec rejects NaN/Inf inputs, core raises ErrOverflow before
// non-finite moments propagate).

// Band is the tridiagonal-window view of a square CSR matrix whose
// stored entries all satisfy |i-j| <= 1, stored as three planes of one
// backing array: val[i], val[stride+i] and val[2*stride+i] hold entries
// (i, i-1), (i, i) and (i, i+1). Cells outside the matrix or without a
// stored entry hold +0.0. The plane stride is bandPlaneStride(n), the
// stride of the sweep's state planes, so the planes start at least 256
// bytes apart modulo 4096 and one register addresses all of them.
type Band struct {
	n, stride int
	val       []float64
}

// N returns the matrix dimension.
func (b *Band) N() int { return b.n }

// planes returns the sub-diagonal, diagonal and super-diagonal planes.
func (b *Band) planes() (sub, diag, sup []float64) {
	st, n := b.stride, b.n
	return b.val[:n:n], b.val[st : st+n : st+n], b.val[2*st : 2*st+n : 2*st+n]
}

// MatVec computes y = b*x with the same per-row ascending-column
// accumulation order as CSR.MatVec; for finite x the results are bitwise
// identical (see the padded-zero analysis in the file comment). It skips
// the window cells that fall outside the matrix at the first and last row.
func (b *Band) MatVec(x, y []float64) {
	sub, diag, sup := b.planes()
	for i := 0; i < b.n; i++ {
		var sum float64
		if i > 0 {
			sum += sub[i] * x[i-1]
		}
		sum += diag[i] * x[i]
		if i+1 < b.n {
			sum += sup[i] * x[i+1]
		}
		y[i] = sum
	}
}

// Dense expands the band into a row-major n x n slice, for tests.
func (b *Band) Dense() []float64 {
	out := make([]float64, b.n*b.n)
	for i := 0; i < b.n; i++ {
		for k := 0; k < 3; k++ {
			if j := i - 1 + k; j >= 0 && j < b.n {
				out[i*b.n+j] = b.val[k*b.stride+i]
			}
		}
	}
	return out
}

// bandPlaneStride returns the plane stride, in float64 words, of the
// band's storage and of the row-lane state layout every band sweep runs
// on (see Sweep.RunFrom): at least n+2 words — the state planes carry
// one zero padding cell at each end — rounded to whole 64-byte lines,
// then raised line by line until any two of eight consecutive plane
// starts (at order 3, the two state buffers' four moment planes each,
// laid out back to back) lie at least 256 bytes apart modulo 4096. Without
// the spread, sizes whose stride is close to a multiple of 4 KiB (N =
// 16,383: 8 bytes past one) map every plane onto the same L1 sets and
// the same 4K-aliasing addresses, and a 128-row block no longer stays
// in L1. The search ends within 64 lines: a stride of 512 bytes modulo
// 4096 always qualifies.
func bandPlaneStride(n int) int {
	st := (n + 2 + 7) &^ 7
	for !planesSpread(st) {
		st += 8
	}
	return st
}

// planesSpread reports whether plane starts p·st (p = 0..7, st in words)
// are pairwise at least 256 bytes apart modulo 4096; the distance of
// planes p and q depends only on |p-q|.
func planesSpread(st int) bool {
	for k := 1; k < 8; k++ {
		if d := k * st * 8 % 4096; d < 256 || d > 4096-256 {
			return false
		}
	}
	return true
}

// Bandwidth returns the smallest (lo, hi) such that every stored entry
// (i, j) satisfies i-lo <= j <= i+hi, computed from the structure on each
// call. An empty matrix reports (0, 0).
func (m *CSR) Bandwidth() (lo, hi int) {
	for i := 0; i < m.rows; i++ {
		s, e := m.rowPtr[i], m.rowPtr[i+1]
		if s == e {
			continue
		}
		// Columns are sorted ascending within a row, so the first and
		// last entries bound the row's band.
		lo = max(lo, i-int(m.colIdx[s]))
		hi = max(hi, int(m.colIdx[e-1])-i)
	}
	return lo, hi
}
