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
	// FormatAuto picks the cheapest representation by structure: band for
	// tridiagonal-window matrices (the paper's birth-death generators),
	// then QBD for block-tridiagonal matrices whose dense window pays for
	// itself, otherwise compact-index CSR.
	FormatAuto MatrixFormat = "auto"
	// FormatCSR forces the compact-index CSR: uint32 column indexes,
	// half the index traffic of the generic CSR.
	FormatCSR MatrixFormat = "csr"
	// FormatBand forces the tridiagonal-window representation (three
	// value planes, no index loads). Matrices with an entry more than
	// one column off the diagonal fall back to FormatCSR; the effective
	// choice is visible via Sweep.Format.
	FormatBand MatrixFormat = "band"
	// FormatCSR64 labels the generic CSR with native int column indexes.
	// It is not a selectable format (ParseMatrixFormat rejects it): it is
	// the storage RunReference streams, and the serial reference oracle
	// (core's SweepWorkers < 0) builds its sweep with it so no derived
	// representation is converted. Run refuses it.
	FormatCSR64 MatrixFormat = "csr64"
	// FormatCSR32 is the resolved name of the compact-index CSR; it is
	// what Sweep.Format reports when FormatCSR (or FormatAuto) picked it.
	// It is also accepted as an input alias for FormatCSR.
	FormatCSR32 MatrixFormat = "csr32"
	// FormatQBD forces the block-tridiagonal (quasi-birth-death) window
	// representation: dense 3b-cell rows addressed by level, value-only
	// traffic like band but for block-local coupling. Matrices with no
	// valid (or no affordable) block size fall back to FormatCSR.
	FormatQBD MatrixFormat = "qbd"
)

// ErrUnsupportedFormat reports a matrix format that cannot serve the
// request: an unknown format name, a matrix whose columns do not fit the
// compact 32-bit indexes, or Run on the reference-only csr64 storage.
var ErrUnsupportedFormat = errors.New("sparse: unsupported matrix format")

// ParseMatrixFormat validates a user-facing matrix format string. The
// empty string means FormatAuto.
func ParseMatrixFormat(s string) (MatrixFormat, error) {
	switch f := MatrixFormat(s); f {
	case "":
		return FormatAuto, nil
	case FormatAuto, FormatCSR, FormatBand, FormatCSR32, FormatQBD:
		return f, nil
	default:
		return "", fmt.Errorf("%w %q (want auto, csr, band or qbd)", ErrUnsupportedFormat, s)
	}
}

// resolveStorage picks the concrete storage for a sweep over an explicit
// matrix a: the resolved format (FormatBand, FormatQBD, FormatCSR32, or
// FormatCSR64 for the reference oracle) plus the derived representation
// it streams. Derived representations are cached on the matrix, so
// repeated sweeps (core.Prepared) convert once.
func resolveStorage(a *CSR, format MatrixFormat) (MatrixFormat, *Band, []uint32, *QBD, error) {
	switch format {
	case "", FormatAuto, FormatBand:
		// A forced band that does not fit the window falls back to
		// compact CSR.
		if a.bandEligible() {
			return FormatBand, a.BandRep(), nil, nil, nil
		}
		if format != FormatBand && a.qbdEligible(false) {
			return FormatQBD, nil, nil, a.QBDRep(), nil
		}
	case FormatQBD:
		if a.qbdEligible(true) {
			return FormatQBD, nil, nil, a.QBDRep(), nil
		}
	case FormatCSR, FormatCSR32:
	case FormatCSR64:
		return FormatCSR64, nil, nil, nil, nil
	default:
		return "", nil, nil, nil, fmt.Errorf("%w %q", ErrUnsupportedFormat, format)
	}
	c32 := a.ColIdx32()
	if c32 == nil {
		return "", nil, nil, nil, fmt.Errorf("%w: %dx%d matrix has no 32-bit column index", ErrUnsupportedFormat, a.rows, a.cols)
	}
	return FormatCSR32, nil, c32, nil, nil
}
