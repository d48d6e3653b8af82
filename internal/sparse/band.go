package sparse

import (
	"math"
	"sync"
)

// This file implements the structure-adaptive storage engine behind the
// randomization sweep. The paper's flagship example — the ON-OFF
// multiplexer, 200,001 states — has a tridiagonal birth-death generator,
// and for such matrices the generic CSR kernel wastes half its memory
// traffic on column indexes (8 bytes of index per 8-byte value) in a loop
// BENCH_sweep.json shows is memory-bandwidth-bound. Two cheaper
// representations are derived lazily from the immutable CSR:
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
//     bands take QBD or compact-index CSR instead, which have their own
//     order-3 vector bodies.
//   - Compact-index CSR: the same CSR structure with uint32 column
//     indexes, halving index traffic for every matrix below 2^32
//     columns; the general representation.
//
// Both are caches on the CSR value: built once under sync.Once, shared by
// every sweep over the same matrix (core.Prepared reuses the matrix across
// solves, so the conversion cost amortizes to zero).
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
// stored CSR entry hold +0.0. The plane stride is bandPlaneStride(n), the
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
// identical (see the padded-zero analysis in the file comment).
func (b *Band) MatVec(x, y []float64) { b.matVecRange(0, b.n, x, y) }

// matVecRange computes y[i] = (b·x)[i] for lo <= i < hi, skipping the
// window cells that fall outside the matrix at the first and last row.
func (b *Band) matVecRange(lo, hi int, x, y []float64) {
	sub, diag, sup := b.planes()
	for i := lo; i < hi; i++ {
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

// deriv holds the lazily built derived representations of a CSR matrix.
// The zero value is ready to use; each representation is built at most
// once under its sync.Once, so concurrent sweeps over a shared matrix
// (core.Prepared) race-freely share the conversions.
type deriv struct {
	bwOnce     sync.Once
	bwLo, bwHi int

	col32Once sync.Once
	col32     []uint32

	bandOnce sync.Once
	band     *Band

	qbdOnce sync.Once
	qbdB    int // detected QBD block size, 0 = none

	qbdRepOnce sync.Once
	qbdRep     *QBD
}

func (m *CSR) derived() *deriv { return &m.dv }

// Bandwidth returns the smallest (lo, hi) such that every stored entry
// (i, j) satisfies i-lo <= j <= i+hi. The result is computed once and
// cached. An empty matrix reports (0, 0).
func (m *CSR) Bandwidth() (lo, hi int) {
	d := m.derived()
	d.bwOnce.Do(func() {
		for i := 0; i < m.rows; i++ {
			s, e := m.rowPtr[i], m.rowPtr[i+1]
			if s == e {
				continue
			}
			// Columns are sorted ascending within a row, so the first and
			// last entries bound the row's band.
			if b := i - m.colIdx[s]; b > d.bwLo {
				d.bwLo = b
			}
			if b := m.colIdx[e-1] - i; b > d.bwHi {
				d.bwHi = b
			}
		}
	})
	return d.bwLo, d.bwHi
}

// ColIdx32 returns the column indexes narrowed to uint32 — the
// compact-index CSR representation, halving index traffic in
// bandwidth-bound kernels — or nil when the matrix is too wide for 32-bit
// columns. Each index is checked against the width at build time; the
// result is cached.
func (m *CSR) ColIdx32() []uint32 {
	if m.cols > math.MaxUint32 {
		return nil
	}
	d := m.derived()
	d.col32Once.Do(func() {
		c32 := make([]uint32, len(m.colIdx))
		for k, j := range m.colIdx {
			if j < 0 || j >= m.cols {
				return // corrupt structure; leave col32 nil
			}
			c32[k] = uint32(j)
		}
		d.col32 = c32
	})
	return d.col32
}

// bandEligible reports whether the matrix fits the tridiagonal window:
// square, non-empty, and every stored entry within one column of the
// diagonal. The window is three cells per row whatever the fill, so no
// density rule applies — the policy is the same whether "band" was
// forced or picked automatically.
func (m *CSR) bandEligible() bool {
	if m.rows != m.cols || m.rows == 0 {
		return false
	}
	lo, hi := m.Bandwidth()
	return lo <= 1 && hi <= 1
}

// BandRep returns the cached tridiagonal-window representation, building
// it on first call, or nil when the matrix is not band-eligible.
func (m *CSR) BandRep() *Band {
	if !m.bandEligible() {
		return nil
	}
	d := m.derived()
	d.bandOnce.Do(func() {
		st := bandPlaneStride(m.rows)
		b := &Band{n: m.rows, stride: st, val: make([]float64, 3*st)}
		for i := 0; i < m.rows; i++ {
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				b.val[(m.colIdx[p]-i+1)*st+i] = m.val[p]
			}
		}
		d.band = b
	})
	return d.band
}
