package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Scaled and AddDiagonal form Q' = Q/q + I in two copies, the way the
// uniformized generator was built before the one-pass storage builder
// (see newStorage). They are the reference its outputs are tested
// against.

// Scaled returns a new CSR equal to a*m.
func (m *CSR) Scaled(a float64) *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]uint32(nil), m.colIdx...),
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
		colIdx: make([]uint32, 0, len(m.colIdx)+grow),
		val:    make([]float64, 0, len(m.val)+grow),
	}
	emit := func(j int, v float64) {
		if v != 0 {
			out.colIdx = append(out.colIdx, uint32(j))
			out.val = append(out.val, v)
		}
	}
	for i := 0; i < m.rows; i++ {
		k, end := m.rowPtr[i], m.rowPtr[i+1]
		for ; k < end && int(m.colIdx[k]) < i; k++ {
			emit(int(m.colIdx[k]), m.val[k])
		}
		// Builder sums duplicates from 0, skipping zero addends.
		diag := 0.0
		if k < end && int(m.colIdx[k]) == i {
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
			emit(int(m.colIdx[k]), m.val[k])
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out, nil
}

// builderAddDiagonal is m + diag(d) through the COO Builder: every stored
// entry, then (i, i, d[i]) per row. It is the reference the one-pass
// AddDiagonal merge must reproduce bit for bit.
func builderAddDiagonal(m *CSR, d []float64) *CSR {
	b := NewBuilder(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			_ = b.Add(i, int(m.colIdx[k]), m.val[k])
		}
		_ = b.Add(i, i, d[i])
	}
	return b.Build()
}

// sameBits reports whether a and b store identical structure and value
// bits.
func sameBits(t *testing.T, what string, a, b *CSR) {
	t.Helper()
	if a.rows != b.rows || a.cols != b.cols || len(a.rowPtr) != len(b.rowPtr) ||
		len(a.colIdx) != len(b.colIdx) || len(a.val) != len(b.val) {
		t.Fatalf("%s: shape %dx%d nnz %d, want %dx%d nnz %d", what, a.rows, a.cols, len(a.val), b.rows, b.cols, len(b.val))
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", what, i, a.rowPtr[i], b.rowPtr[i])
		}
	}
	for k := range a.colIdx {
		if a.colIdx[k] != b.colIdx[k] || math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", what, k,
				a.colIdx[k], math.Float64bits(a.val[k]), b.colIdx[k], math.Float64bits(b.val[k]))
		}
	}
}

// randomSquare draws a Builder-assembled n×n matrix with duplicate
// entries (some cancelling), empty rows, and a mix of tiny and large
// magnitudes so that scaling can underflow stored entries to zero.
func randomSquare(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n, n)
	for e := rng.Intn(4 * n); e > 0; e-- {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == n-1 {
			continue // keep the last row empty
		}
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
		switch rng.Intn(8) {
		case 0:
			v = 5e-324
		case 1:
			_ = b.Add(i, j, v)
			v = -v // an exact cancellation
		}
		_ = b.Add(i, j, v)
	}
	return b.Build()
}

// TestAddDiagonalMatchesBuilder checks the row-merge AddDiagonal against
// the Builder formulation, bitwise: stored zeros from underflow dropped,
// diagonals summed existing-first, zero d[i] not inserted, and diagonals
// that cancel to zero dropped — including the uniformization shape
// Q/q + I, whose fastest row has a zero diagonal.
func TestAddDiagonalMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(12)
		m := randomSquare(rng, n)
		if iter%3 == 0 {
			m = m.Scaled(1e-320) // underflows most entries to zero or subnormals
		}
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(4) {
			case 0: // zero: nothing inserted
			case 1:
				d[i] = -m.At(i, i) // cancels the diagonal
			default:
				d[i] = rng.NormFloat64()
			}
		}
		got, err := m.AddDiagonal(d)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "AddDiagonal", got, builderAddDiagonal(m, d))
	}
}

// TestNewCSRSorted checks that the one-pass constructor accepts exactly
// Builder's output form and returns Builder's matrix.
func TestNewCSRSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		ref := randomSquare(rng, 1+rng.Intn(10))
		got, err := NewCSRSorted(ref.rows, ref.cols, append([]int(nil), ref.rowPtr...),
			append([]uint32(nil), ref.colIdx...), append([]float64(nil), ref.val...))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "NewCSRSorted", got, ref)
	}
	for _, c := range []struct {
		name   string
		rowPtr []int
		colIdx []uint32
		val    []float64
	}{
		{"short rowPtr", []int{0, 1}, []uint32{0}, []float64{1}},
		{"nnz mismatch", []int{0, 1, 2}, []uint32{0}, []float64{1}},
		{"decreasing rows", []int{0, 2, 1}, []uint32{0, 1}, []float64{1, 2}},
		{"unsorted columns", []int{0, 2, 2}, []uint32{1, 0}, []float64{1, 2}},
		{"duplicate column", []int{0, 2, 2}, []uint32{1, 1}, []float64{1, 2}},
		{"column out of range", []int{0, 1, 1}, []uint32{2}, []float64{1}},
		{"stored zero", []int{0, 1, 1}, []uint32{0}, []float64{0}},
	} {
		if _, err := NewCSRSorted(2, 2, c.rowPtr, c.colIdx, c.val); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// randomGenerator draws an n-state generator for the storage property
// test: rates across seven decades plus subnormals that underflow once
// scaled, empty rows, and either tridiagonal structure — sometimes with a
// far entry that underflows away, leaving Q' inside the band window — or
// scattered transitions.
func randomGenerator(rng *rand.Rand, n int) *CSR {
	rate := func() float64 {
		if rng.Intn(8) == 0 {
			return 5e-324
		}
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	tri := rng.Intn(2) == 0
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			continue // an empty row: Q' gets a bare unit diagonal
		}
		exit := 0.0
		add := func(j int) {
			if j >= 0 && j < n && j != i {
				v := rate()
				_ = b.Add(i, j, v)
				exit += v
			}
		}
		if tri {
			add(i - 1)
			add(i + 1)
			if rng.Intn(6) == 0 {
				j := (i + 2 + rng.Intn(n)) % n
				if j-i > 1 || i-j > 1 {
					_ = b.Add(i, j, 5e-324)
					exit += 5e-324
				}
			}
		} else {
			for e := rng.Intn(4); e > 0; e-- {
				add(rng.Intn(n))
			}
		}
		if exit != 0 {
			_ = b.Add(i, i, -exit)
		}
	}
	return b.Build()
}

// TestUniformizeMatchesScaledAddDiagonal is the storage builder's
// property test: on random generators, Uniformize's band and compact CSR
// outputs store exactly the entries of the two-copy reference
// Scaled(1/q).AddDiagonal(ones) — underflowed entries and diagonals that
// cancel to zero dropped — bit for bit, with its nnz and bandwidth, and
// the band exactly when that bandwidth fits the window. q is the maximum
// exit rate (whose row's diagonal cancels) or a larger rate.
func TestUniformizeMatchesScaledAddDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 600; iter++ {
		n := 1 + rng.Intn(14)
		m := randomGenerator(rng, n)
		q := 0.0
		for i := 0; i < n; i++ {
			q = max(q, -m.At(i, i))
		}
		if q == 0 || rng.Intn(4) == 0 {
			q += 1 + rng.Float64()
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		ref, err := m.Scaled(1 / q).AddDiagonal(ones)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ref.Bandwidth()
		for _, c := range []struct {
			format   MatrixFormat
			impulses bool
		}{{FormatAuto, false}, {FormatCSR, false}, {FormatBand, true}} {
			tag := fmt.Sprintf("iter %d n=%d %s impulses=%v", iter, n, c.format, c.impulses)
			st, err := Uniformize(m, 1/q, c.format, c.impulses)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if st.NNZ() != ref.NNZ() || st.Bandwidth() != max(lo, hi) {
				t.Fatalf("%s: nnz %d, bandwidth %d, want %d, %d", tag, st.NNZ(), st.Bandwidth(), ref.NNZ(), max(lo, hi))
			}
			wantBand := c.format == FormatAuto && max(lo, hi) <= 1
			if (st.Format() == FormatBand) != wantBand {
				t.Fatalf("%s: format %q, want band %v", tag, st.Format(), wantBand)
			}
			if st.Bytes() != StorageBytes(st.Format(), n, ref.NNZ()) {
				t.Fatalf("%s: %d bytes, StorageBytes says %d", tag, st.Bytes(), StorageBytes(st.Format(), n, ref.NNZ()))
			}
			if !wantBand {
				sameBits(t, tag, st.CSR(), ref)
				continue
			}
			want := make([]float64, len(st.band.val))
			for i := 0; i < n; i++ {
				ref.Range(i, func(j int, v float64) { want[(j-i+1)*st.band.stride+i] = v })
			}
			for k, v := range st.band.val {
				if math.Float64bits(v) != math.Float64bits(want[k]) {
					t.Fatalf("%s: band cell %d = %x, want %x", tag, k, math.Float64bits(v), math.Float64bits(want[k]))
				}
			}
		}
	}
}
