package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// builderAddDiagonal is m + diag(d) through the COO Builder: every stored
// entry, then (i, i, d[i]) per row. It is the reference the one-pass
// AddDiagonal merge must reproduce bit for bit.
func builderAddDiagonal(m *CSR, d []float64) *CSR {
	b := NewBuilder(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			_ = b.Add(i, m.colIdx[k], m.val[k])
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
			append([]int(nil), ref.colIdx...), append([]float64(nil), ref.val...))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "NewCSRSorted", got, ref)
	}
	for _, c := range []struct {
		name   string
		rowPtr []int
		colIdx []int
		val    []float64
	}{
		{"short rowPtr", []int{0, 1}, []int{0}, []float64{1}},
		{"nnz mismatch", []int{0, 1, 2}, []int{0}, []float64{1}},
		{"decreasing rows", []int{0, 2, 1}, []int{0, 1}, []float64{1, 2}},
		{"unsorted columns", []int{0, 2, 2}, []int{1, 0}, []float64{1, 2}},
		{"duplicate column", []int{0, 2, 2}, []int{1, 1}, []float64{1, 2}},
		{"column out of range", []int{0, 1, 1}, []int{2}, []float64{1}},
		{"stored zero", []int{0, 1, 1}, []int{0}, []float64{0}},
	} {
		if _, err := NewCSRSorted(2, 2, c.rowPtr, c.colIdx, c.val); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
