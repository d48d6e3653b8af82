package sparse

// QBD is a block-tridiagonal (quasi-birth-death) view of a square CSR
// matrix: the n states split into n/b levels of b phases each, and every
// stored entry couples a level only to itself or its two neighbours.
// Row i stores a dense window of 3b cells — the sub-diagonal, diagonal
// and super-diagonal blocks — so the kernel computes column positions
// from the level index instead of loading them, like Band, but for
// matrices whose coupling is block-local rather than scalar-local: a
// level of b dense-ish phases has bandwidth up to 2b-1, which blows past
// the band policy long before the 3b-cell QBD window stops paying.
//
// Val[i*3b + k] holds entry (i, (i/b-1)*b + k); cells outside the matrix
// (boundary levels) or without a stored CSR entry hold +0.0, which is
// bitwise neutral in the sweep's row accumulation by exactly the
// argument in band.go's file comment.
type QBD struct {
	n, b int
	nnz  int64 // stored entries of the source CSR
	val  []float64
}

// N returns the matrix dimension.
func (q *QBD) N() int { return q.n }

// Block returns the phase count b (the block size).
func (q *QBD) Block() int { return q.b }

// MatVec computes y = q*x with the same per-row ascending-column
// accumulation order as CSR.MatVec; for finite x the results are bitwise
// identical (padded cells are +0.0 and bitwise neutral, see band.go).
func (q *QBD) MatVec(x, y []float64) { q.matVecRange(0, q.n, x, y) }

func (q *QBD) matVecRange(lo, hi int, x, y []float64) {
	b, w := q.b, 3*q.b
	last := q.n/b - 1
	for i := lo; i < hi; i++ {
		blk := i / b
		row := q.val[i*w : i*w+w]
		k0, k1 := 0, w
		if blk == 0 {
			k0 = b
		}
		if blk == last {
			k1 = 2 * b
		}
		base := (blk - 1) * b
		var sum float64
		for k := k0; k < k1; k++ {
			sum += row[k] * x[base+k]
		}
		y[i] = sum
	}
}

// ToCSR expands the QBD back into a CSR matrix, dropping the padded zero
// cells. Because the QBD stores every source entry at its exact value
// and the builder's stable sort keeps ascending columns, the round trip
// reproduces the source structure and values exactly.
func (q *QBD) ToCSR() *CSR {
	bld := NewBuilder(q.n, q.n)
	b, w := q.b, 3*q.b
	for i := 0; i < q.n; i++ {
		base := (i/b - 1) * b
		for k := 0; k < w; k++ {
			if j := base + k; j >= 0 && j < q.n {
				bld.Add(i, j, q.val[i*w+k])
			}
		}
	}
	return bld.Build()
}

// QBD eligibility thresholds: the automatic policy converts only when
// the 3b-cell window is narrow and pays for itself against the CSR's
// value+index traffic; a forced "qbd" format is honored up to much larger
// blocks and more padding, with a small-matrix escape hatch so tests and
// tiny models can always exercise the QBD kernel.
const (
	maxAutoQBDBlock   = 16
	maxForcedQBDBlock = 256
	smallQBDCells     = 1 << 16
)

// qbdCells returns rows*3b, the storage cost of the QBD representation
// in float64 cells, for block size b.
func (m *CSR) qbdCells(b int) int64 { return int64(m.rows) * int64(3*b) }

// QBDBlock returns the smallest block size b dividing n for which every
// stored entry (i, j) satisfies |i/b - j/b| <= 1, capped at
// maxForcedQBDBlock, or 0 when no such b exists. The result is computed
// once and cached. Note b = n always qualifies (a single level), so
// small matrices always detect; the eligibility policy is what keeps the
// degenerate dense window from being picked in anger.
func (m *CSR) QBDBlock() int {
	d := m.derived()
	d.qbdOnce.Do(func() {
		if m.rows != m.cols || m.rows == 0 {
			return
		}
		lo, hi := m.Bandwidth()
		reach := lo
		if hi > reach {
			reach = hi
		}
		// An entry at distance r needs 2b-1 >= r to land in an adjacent
		// block even in the best alignment, so b < (r+1)/2 can never work.
		minB := (reach + 2) / 2
		if minB < 1 {
			minB = 1
		}
		for b := minB; b <= m.rows && b <= maxForcedQBDBlock; b++ {
			if m.rows%b == 0 && m.qbdValid(b) {
				d.qbdB = b
				return
			}
		}
	})
	return d.qbdB
}

// qbdValid reports whether block size b (dividing rows) keeps every
// stored entry within adjacent blocks. Columns are ascending within a
// row, so only each row's first and last entry need checking.
func (m *CSR) qbdValid(b int) bool {
	for i := 0; i < m.rows; i++ {
		s, e := m.rowPtr[i], m.rowPtr[i+1]
		if s == e {
			continue
		}
		blk := i / b
		if m.colIdx[s] < (blk-1)*b || m.colIdx[e-1] >= (blk+2)*b {
			return false
		}
	}
	return true
}

// qbdEligible reports whether the QBD representation should be used for
// this matrix under the given policy (forced = the caller explicitly
// requested "qbd" rather than "auto").
func (m *CSR) qbdEligible(forced bool) bool {
	b := m.QBDBlock()
	if b == 0 {
		return false
	}
	cells, nnz := m.qbdCells(b), int64(m.NNZ())
	if forced {
		return b <= maxForcedQBDBlock && (cells <= 4*nnz || cells <= smallQBDCells)
	}
	return b <= maxAutoQBDBlock && cells <= 2*nnz
}

// QBDRep returns the cached QBD representation, building it on first
// call, or nil when QBDBlock found no valid block size. Callers gate on
// qbdEligible (or accept the O(rows*3b) memory cost knowingly).
func (m *CSR) QBDRep() *QBD {
	b := m.QBDBlock()
	if b == 0 {
		return nil
	}
	d := m.derived()
	d.qbdRepOnce.Do(func() {
		w := 3 * b
		q := &QBD{n: m.rows, b: b, nnz: int64(m.NNZ()),
			val: make([]float64, m.rows*w)}
		for i := 0; i < m.rows; i++ {
			base := (i/b - 1) * b
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				q.val[i*w+(m.colIdx[p]-base)] = m.val[p]
			}
		}
		d.qbdRep = q
	})
	return d.qbdRep
}

// fuseBlock3QBD is the order-3/no-impulse fused kernel over the QBD
// window and the interleaved (unpadded) state layout: per row it streams
// the dense 3b-cell window (clipped at boundary levels), gathering four
// interleaved moment values per cell. Padded cells contribute 0.0
// products, bitwise neutral per band.go; the per-element operation
// sequence otherwise matches fuseBlock3Compact exactly.
func (s *Sweep) fuseBlock3QBD(lo, hi int, cur4, next4 []float64, active []accPair) {
	qb := s.qbd
	b, w := qb.b, 3*qb.b
	last := qb.n/b - 1
	d1, d2 := s.diag1, s.diag2
	var wgt float64
	var a0, a1, a2, a3 []float64
	if len(active) == 1 {
		wgt = active[0].w
		a0, a1, a2, a3 = active[0].acc[0], active[0].acc[1], active[0].acc[2], active[0].acc[3]
	}
	for i := lo; i < hi; i++ {
		blk := i / b
		row := qb.val[i*w : i*w+w]
		k0, k1 := 0, w
		if blk == 0 {
			k0 = b
		}
		if blk == last {
			k1 = 2 * b
		}
		base4 := ((blk-1)*b + k0) * 4
		var s0, s1, s2, s3 float64
		for k := k0; k < k1; k++ {
			v := row[k]
			c4 := base4 + (k-k0)*4
			cv := cur4[c4 : c4+4 : c4+4]
			s3 += v * cv[3]
			s2 += v * cv[2]
			s1 += v * cv[1]
			s0 += v * cv[0]
		}
		civ := cur4[i*4 : i*4+4 : i*4+4]
		d1i, d2i := d1[i], d2[i]
		s3 += d1i * civ[2]
		s3 += d2i * civ[1]
		s2 += d1i * civ[1]
		s2 += d2i * civ[0]
		s1 += d1i * civ[0]
		nv := next4[i*4 : i*4+4 : i*4+4]
		nv[0], nv[1], nv[2], nv[3] = s0, s1, s2, s3
		switch {
		case a0 != nil:
			a0[i] += wgt * s0
			a1[i] += wgt * s1
			a2[i] += wgt * s2
			a3[i] += wgt * s3
		case len(active) > 1:
			for _, ap := range active {
				wp := ap.w
				ap.acc[0][i] += wp * s0
				ap.acc[1][i] += wp * s1
				ap.acc[2][i] += wp * s2
				ap.acc[3][i] += wp * s3
			}
		}
	}
}
