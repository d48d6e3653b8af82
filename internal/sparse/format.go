package sparse

import (
	"errors"
	"fmt"
)

// MatrixFormat selects the storage representation the randomization sweep
// streams for its main matrix. Every format produces bitwise identical
// results; the choice trades only memory traffic and conversion cost.
type MatrixFormat string

const (
	// FormatAuto picks the representation by structure: band for
	// impulse-free sweeps over tridiagonal-window matrices (the paper's
	// birth-death generators), compact-index CSR for every other sweep.
	FormatAuto MatrixFormat = "auto"
	// FormatCSR forces the compact-index CSR: uint32 column indexes,
	// half the index traffic of the generic CSR.
	FormatCSR MatrixFormat = "csr"
	// FormatBand forces the tridiagonal-window representation (three
	// value planes, no index loads). Matrices with an entry more than
	// one column off the diagonal, and sweeps with impulse matrices,
	// fall back to FormatCSR; the effective choice is visible via
	// Sweep.Format.
	FormatBand MatrixFormat = "band"
	// FormatCSR32 is the resolved name of the compact-index CSR; it is
	// what Sweep.Format reports when FormatCSR (or FormatAuto) picked it.
	// It is also accepted as an input alias for FormatCSR.
	FormatCSR32 MatrixFormat = "csr32"
)

// ErrUnsupportedFormat reports a matrix format that cannot serve the
// request: an unknown format name, or a matrix whose columns do not fit
// the compact 32-bit indexes.
var ErrUnsupportedFormat = errors.New("sparse: unsupported matrix format")

// ParseMatrixFormat validates a user-facing matrix format string. The
// empty string means FormatAuto.
func ParseMatrixFormat(s string) (MatrixFormat, error) {
	switch f := MatrixFormat(s); f {
	case "":
		return FormatAuto, nil
	case FormatAuto, FormatCSR, FormatBand, FormatCSR32:
		return f, nil
	default:
		return "", fmt.Errorf("%w %q (want auto, csr or band)", ErrUnsupportedFormat, s)
	}
}

// resolveStorage picks the concrete storage for a sweep over an explicit
// matrix a: the resolved format (FormatBand or FormatCSR32) plus the
// derived representation it streams. The band window serves only
// impulse-free sweeps. Derived representations are cached on the matrix, so
// repeated sweeps (core.Prepared) convert once.
func resolveStorage(a *CSR, format MatrixFormat, impulses bool) (MatrixFormat, *Band, []uint32, error) {
	switch format {
	case "", FormatAuto, FormatBand:
		// Auto, and a forced band, take compact CSR outside the window.
		if !impulses && a.bandEligible() {
			return FormatBand, a.BandRep(), nil, nil
		}
	case FormatCSR, FormatCSR32:
	default:
		return "", nil, nil, fmt.Errorf("%w %q", ErrUnsupportedFormat, format)
	}
	c32 := a.ColIdx32()
	if c32 == nil {
		return "", nil, nil, fmt.Errorf("%w: %dx%d matrix has no 32-bit column index", ErrUnsupportedFormat, a.rows, a.cols)
	}
	return FormatCSR32, nil, c32, nil
}
