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

// PackedLayout resolves the storage a fused sweep of the given order runs
// on under format, for an n-row square matrix whose entries lie at most
// bandwidth columns off the diagonal, with or without impulse matrices. It
// returns the resolved format (FormatBand or FormatCSR32) and the float64
// words of one packed buffer of its layout — one plan's accumulator block
// or one set of moment-state vectors, padding included (see
// Sweep.planes): order+1 row-lane planes of bandPlaneStride(n) words on
// the band, P words per state on compact CSR. The band window serves only
// impulse-free sweeps. This is the one place those choices are made: the
// sweep's own resolution uses it, and so can a caller that knows the
// matrix only by its shape, such as an admission estimate.
func PackedLayout(format MatrixFormat, n, bandwidth, order int, impulses bool) (MatrixFormat, int, error) {
	switch format {
	case "", FormatAuto, FormatBand:
		// Auto, and a forced band, take compact CSR outside the window.
		if !impulses && n > 0 && bandwidth <= 1 {
			return FormatBand, (order + 1) * bandPlaneStride(n), nil
		}
	case FormatCSR, FormatCSR32:
	default:
		return "", 0, fmt.Errorf("%w %q", ErrUnsupportedFormat, format)
	}
	return FormatCSR32, packedLanes(order) * n, nil
}

// packedLanes is P, the words per state of the interleaved CSR32 layout:
// order+1 rounded up to a multiple of 4.
func packedLanes(order int) int { return (order + 4) &^ 3 }

// resolveStorage picks the concrete storage for a sweep of the given order
// over an explicit square matrix a (see PackedLayout): the resolved
// format, the words of one packed buffer, and the derived representation
// it streams. Derived representations are cached on the matrix, so
// repeated sweeps (core.Prepared) convert once.
func resolveStorage(a *CSR, format MatrixFormat, order int, impulses bool) (MatrixFormat, int, *Band, []uint32, error) {
	lo, hi := a.Bandwidth()
	resolved, words, err := PackedLayout(format, a.rows, max(lo, hi), order, impulses)
	if err != nil {
		return "", 0, nil, nil, err
	}
	if resolved == FormatBand {
		return resolved, words, a.BandRep(), nil, nil
	}
	c32 := a.ColIdx32()
	if c32 == nil {
		return "", 0, nil, nil, fmt.Errorf("%w: %dx%d matrix has no 32-bit column index", ErrUnsupportedFormat, a.rows, a.cols)
	}
	return resolved, words, nil, c32, nil
}
