// Package sparse implements the compressed sparse row (CSR) matrices used in
// the randomization loop of the second-order Markov reward model solver. The
// paper's large example (200,001 states, tridiagonal generator) is only
// tractable with a sparse representation; the iteration cost is
// (m+2) vector-vector multiplications where m is the mean number of
// non-zeros per row.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// ErrDimensionMismatch is returned when operand sizes are incompatible.
var ErrDimensionMismatch = errors.New("sparse: dimension mismatch")

// ErrBadTriplet is returned when a COO triplet lies outside the matrix.
var ErrBadTriplet = errors.New("sparse: triplet index out of range")

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	val        []float64

	// dv caches derived representations (bandwidth, compact 32-bit column
	// indexes, the band form) built lazily from the immutable structure.
	dv deriv
}

// Triplet is a single (row, col, value) entry used to build a CSR matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Builder accumulates COO triplets and converts them to CSR. Duplicate
// (row, col) entries are summed, matching the usual sparse-assembly
// convention.
type Builder struct {
	rows, cols int
	entries    []Triplet
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add records value v at (i, j). Zero values are kept out of the structure.
func (b *Builder) Add(i, j int, v float64) error {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		return fmt.Errorf("%w: (%d,%d) in %dx%d", ErrBadTriplet, i, j, b.rows, b.cols)
	}
	if v == 0 {
		return nil
	}
	b.entries = append(b.entries, Triplet{Row: i, Col: j, Val: v})
	return nil
}

// Build converts the accumulated triplets to a CSR matrix. The builder can
// be reused afterwards; Build does not clear it.
func (b *Builder) Build() *CSR {
	ents := append([]Triplet(nil), b.entries...)
	// Stable: duplicate (row, col) triplets are summed in Add order, so a
	// rebuilt matrix is bitwise identical regardless of sort internals.
	sort.SliceStable(ents, func(x, y int) bool {
		if ents[x].Row != ents[y].Row {
			return ents[x].Row < ents[y].Row
		}
		return ents[x].Col < ents[y].Col
	})
	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
	}
	// Merge duplicates.
	for k := 0; k < len(ents); {
		row, col, sum := ents[k].Row, ents[k].Col, 0.0
		for ; k < len(ents) && ents[k].Row == row && ents[k].Col == col; k++ {
			sum += ents[k].Val
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, col)
			m.val = append(m.val, sum)
			m.rowPtr[row+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// NewCSRFromDense builds a CSR matrix from a row-major dense slice layout.
func NewCSRFromDense(rows, cols int, data []float64) (*CSR, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrDimensionMismatch, len(data), rows, cols)
	}
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; v != 0 {
				if err := b.Add(i, j, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}

// NewCSRSorted wraps CSR arrays that are already in Builder's output
// form, without copying them: rowPtr holds rows+1 non-decreasing offsets
// from 0 to len(colIdx) == len(val), each row's column indexes are
// strictly increasing and in range, and no value is zero. It is the
// one-pass alternative to Builder for callers that emit entries in row
// order, and returns the matrix Builder would build from them.
func NewCSRSorted(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 ||
		rowPtr[rows] != len(colIdx) || len(colIdx) != len(val) {
		return nil, fmt.Errorf("%w: csr arrays (%d row offsets, %d columns, %d values) for %dx%d",
			ErrDimensionMismatch, len(rowPtr), len(colIdx), len(val), rows, cols)
	}
	for i := 0; i < rows; i++ {
		prev := -1
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("%w: row %d offsets decrease", ErrBadTriplet, i)
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			if j <= prev || j >= cols || val[k] == 0 {
				return nil, fmt.Errorf("%w: row %d entry (%d, %g) out of order, range or zero", ErrBadTriplet, i, j, val[k])
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns element (i, j) with a binary search over the row. It is meant
// for tests and assembly checks, not hot loops.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Range calls fn for every stored entry of row i.
func (m *CSR) Range(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// MatVec computes y = m*x, storing into y (which must have length Rows and
// is overwritten). x and y must not alias.
func (m *CSR) MatVec(x, y []float64) error {
	if len(x) != m.cols || len(y) != m.rows {
		return fmt.Errorf("%w: matvec %dx%d with x=%d y=%d", ErrDimensionMismatch, m.rows, m.cols, len(x), len(y))
	}
	for i := 0; i < m.rows; i++ {
		var sum float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = sum
	}
	return nil
}

// MatVecAdd computes y += a * (m*x). x and y must not alias.
func (m *CSR) MatVecAdd(a float64, x, y []float64) error {
	if len(x) != m.cols || len(y) != m.rows {
		return fmt.Errorf("%w: matvecadd %dx%d with x=%d y=%d", ErrDimensionMismatch, m.rows, m.cols, len(x), len(y))
	}
	if a == 0 {
		return nil
	}
	for i := 0; i < m.rows; i++ {
		var sum float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[i] += a * sum
	}
	return nil
}

// VecMat computes y = xᵀ*m as a length-Cols vector.
func (m *CSR) VecMat(x, y []float64) error {
	if len(x) != m.rows || len(y) != m.cols {
		return fmt.Errorf("%w: vecmat %dx%d with x=%d y=%d", ErrDimensionMismatch, m.rows, m.cols, len(x), len(y))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.val[k]
		}
	}
	return nil
}

// Scaled returns a new CSR equal to a*m.
func (m *CSR) Scaled(a float64) *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    make([]float64, len(m.val)),
	}
	for i, v := range m.val {
		out.val[i] = a * v
	}
	return out
}

// AddDiagonal returns a new CSR equal to m + diag(d). d must have length
// Rows and the matrix must be square.
//
// It merges d into each row in one pass and yields exactly the matrix a
// Builder fed m's entries followed by (i, i, d[i]) would: a stored zero
// (a Scaled underflow) is dropped, the diagonal is the existing entry
// plus d[i] in that order, a zero d[i] inserts nothing, and a diagonal
// that sums to zero is dropped.
func (m *CSR) AddDiagonal(d []float64) (*CSR, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("%w: add diagonal to %dx%d", ErrDimensionMismatch, m.rows, m.cols)
	}
	if len(d) != m.rows {
		return nil, fmt.Errorf("%w: diagonal of %d for %dx%d", ErrDimensionMismatch, len(d), m.rows, m.cols)
	}
	grow := 0 // rows without a stored diagonal gain at most one entry
	for i := 0; i < m.rows; i++ {
		if m.At(i, i) == 0 {
			grow++
		}
	}
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, 0, len(m.colIdx)+grow),
		val:    make([]float64, 0, len(m.val)+grow),
	}
	emit := func(j int, v float64) {
		if v != 0 {
			out.colIdx = append(out.colIdx, j)
			out.val = append(out.val, v)
		}
	}
	for i := 0; i < m.rows; i++ {
		k, end := m.rowPtr[i], m.rowPtr[i+1]
		for ; k < end && m.colIdx[k] < i; k++ {
			emit(m.colIdx[k], m.val[k])
		}
		// Builder sums duplicates from 0, skipping zero addends.
		diag := 0.0
		if k < end && m.colIdx[k] == i {
			if v := m.val[k]; v != 0 {
				diag += v
			}
			k++
		}
		if d[i] != 0 {
			diag += d[i]
		}
		emit(i, diag)
		for ; k < end; k++ {
			emit(m.colIdx[k], m.val[k])
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out, nil
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	sums := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		sums[i] = s
	}
	return sums
}

// IsSubstochastic reports whether all entries are non-negative and all row
// sums are at most 1+tol. These are the two properties the randomization
// method relies on for numerical stability (section 6 of the paper).
func (m *CSR) IsSubstochastic(tol float64) bool {
	for _, v := range m.val {
		if v < 0 {
			return false
		}
	}
	for _, s := range m.RowSums() {
		if s > 1+tol {
			return false
		}
	}
	return true
}

// Dense expands m into a row-major dense slice (rows*cols), for tests and
// for handing small matrices to dense factorizations.
func (m *CSR) Dense() []float64 {
	out := make([]float64, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out[i*m.cols+m.colIdx[k]] = m.val[k]
		}
	}
	return out
}
