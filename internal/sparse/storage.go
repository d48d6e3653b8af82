package sparse

import "fmt"

// Storage is a sweep matrix in the one representation a sweep streams:
// the tridiagonal band planes (FormatBand) or a compact CSR
// (FormatCSR32). Uniformize builds it straight from the generator, so a
// prepared model holds no other copy of the matrix. It is immutable and
// safe to share between concurrent sweeps.
type Storage struct {
	format    MatrixFormat
	n, nnz    int
	bandwidth int   // max(lo, hi) over the stored entries
	band      *Band // set when format == FormatBand
	csr       *CSR  // set when format == FormatCSR32
}

// Format returns the resolved storage: FormatBand or FormatCSR32.
func (s *Storage) Format() MatrixFormat { return s.format }

// NNZ returns the matrix's stored non-zeros, whatever its storage (a
// band's padded cells are not counted).
func (s *Storage) NNZ() int { return s.nnz }

// Bandwidth returns the farthest any stored entry lies off the diagonal.
func (s *Storage) Bandwidth() int { return s.bandwidth }

// CSR returns the compact CSR, or nil for a band storage.
func (s *Storage) CSR() *CSR { return s.csr }

// Bytes returns the bytes the storage's arrays hold.
func (s *Storage) Bytes() int64 {
	if s.band != nil {
		return int64(len(s.band.val)) * 8
	}
	return s.csr.Bytes()
}

// StorageBytes returns the bytes of the storage resolved as format for an
// n-row matrix of nnz stored entries, the sizes Uniformize allocates: three
// band planes of bandPlaneStride(n) words, or a compact CSR's n+1 int row
// offsets and nnz uint32 columns and float64 values.
func StorageBytes(format MatrixFormat, n, nnz int) int64 {
	if format == FormatBand {
		return int64(bandWords(n)) * 8
	}
	return int64(n+1)*8 + int64(nnz)*(4+8)
}

// bandWords is the float64 count of an n-row band's three planes.
func bandWords(n int) int { return 3 * bandPlaneStride(n) }

// Uniformize builds the uniformized matrix a·scale + I — Q' = Q/q + I for
// a generator Q and scale 1/q — straight into the storage a sweep streams
// under format, with or without impulse matrices (see resolveFormat).
// Each entry is exactly what a.Scaled(scale).AddDiagonal(ones) stores:
// v·scale, the diagonal v·scale + 1 (1 where none is stored), and every
// entry that comes out zero dropped — an underflowed product, a diagonal
// that cancels — so the band choice, NNZ and the sweep's results match
// that two-copy formulation bit for bit.
func Uniformize(a *CSR, scale float64, format MatrixFormat, impulses bool) (*Storage, error) {
	return newStorage(a, scale, true, format, impulses)
}

// newStorage builds the storage of a·scale, plus the identity when unit is
// set, in two passes over a: the first finds the stored entries and their
// bandwidth and resolves the format, the second writes the band planes or
// the CSR arrays, each allocated once at its final size.
func newStorage(a *CSR, scale float64, unit bool, format MatrixFormat, impulses bool) (*Storage, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: sweep matrix %dx%d not square", ErrDimensionMismatch, a.rows, a.cols)
	}
	n := a.rows
	st := &Storage{n: n}
	var (
		band   []float64 // set in the second pass of a band
		stride int
		csr    *CSR // set in the second pass of a CSR
	)
	// put records stored entry (i, j, v), dropping zeros as Builder does.
	put := func(i, j int, v float64) {
		switch {
		case v == 0:
		case band != nil:
			band[(j-i+1)*stride+i] = v
		case csr != nil:
			csr.colIdx = append(csr.colIdx, uint32(j))
			csr.val = append(csr.val, v)
		default:
			st.nnz++
			st.bandwidth = max(st.bandwidth, i-j, j-i)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			k, end := a.rowPtr[i], a.rowPtr[i+1]
			for ; k < end && int(a.colIdx[k]) < i; k++ {
				put(i, int(a.colIdx[k]), float64(a.val[k]*scale))
			}
			// AddDiagonal sums the diagonal from 0, skipping zero addends.
			diag := 0.0
			if k < end && int(a.colIdx[k]) == i {
				if v := float64(a.val[k] * scale); v != 0 {
					diag += v
				}
				k++
			}
			if unit {
				diag++
			}
			put(i, i, diag)
			for ; k < end; k++ {
				put(i, int(a.colIdx[k]), float64(a.val[k]*scale))
			}
			if csr != nil {
				csr.rowPtr[i+1] = len(csr.val)
			}
		}
		if pass > 0 {
			break
		}
		var err error
		if st.format, err = resolveFormat(format, n, st.bandwidth, impulses); err != nil {
			return nil, err
		}
		if st.format == FormatBand {
			stride = bandPlaneStride(n)
			band = make([]float64, bandWords(n))
			st.band = &Band{n: n, stride: stride, val: band}
			continue
		}
		csr = &CSR{rows: n, cols: n, rowPtr: make([]int, n+1),
			colIdx: make([]uint32, 0, st.nnz), val: make([]float64, 0, st.nnz)}
		st.csr = csr
	}
	return st, nil
}
