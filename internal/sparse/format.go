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
	// FormatCSR forces the compact CSR (uint32 column indexes).
	FormatCSR MatrixFormat = "csr"
	// FormatBand forces the tridiagonal-window representation (three
	// value planes, no index loads). Matrices with an entry more than
	// one column off the diagonal, and sweeps with impulse matrices,
	// fall back to FormatCSR; the effective choice is visible via
	// Sweep.Format.
	FormatBand MatrixFormat = "band"
	// FormatCSR32 is the resolved name of the compact CSR; it is what
	// Sweep.Format reports when FormatCSR (or FormatAuto) picked it.
	// It is also accepted as an input alias for FormatCSR.
	FormatCSR32 MatrixFormat = "csr32"
)

// ErrUnsupportedFormat reports a matrix format that cannot serve the
// request: an unknown format name, or a storage the sweep cannot stream
// (a band for an impulse or reference sweep).
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

// resolveFormat resolves the storage of an n-row square matrix whose
// entries lie at most bandwidth columns off the diagonal under format:
// FormatBand for an impulse-free sweep inside the tridiagonal window when
// format is auto or band, FormatCSR32 otherwise. This is the one place
// that choice is made: the storage builder (see Uniformize) and
// PackedLayout both use it.
func resolveFormat(format MatrixFormat, n, bandwidth int, impulses bool) (MatrixFormat, error) {
	switch format {
	case "", FormatAuto, FormatBand:
		// Auto, and a forced band, take compact CSR outside the window.
		if !impulses && n > 0 && bandwidth <= 1 {
			return FormatBand, nil
		}
	case FormatCSR, FormatCSR32:
	default:
		return "", fmt.Errorf("%w %q", ErrUnsupportedFormat, format)
	}
	return FormatCSR32, nil
}

// PackedLayout resolves the storage a fused sweep of the given order runs
// on under format, for an n-row square matrix whose entries lie at most
// bandwidth columns off the diagonal, with or without impulse matrices
// (see resolveFormat). It returns the resolved format (FormatBand or
// FormatCSR32) and the float64 words of one packed buffer of its layout —
// one plan's accumulator block or one set of moment-state vectors,
// padding included (see Sweep.planes): order+1 row-lane planes of
// bandPlaneStride(n) words on the band, P words per state on compact CSR.
// A caller that knows the matrix only by its shape, such as an admission
// estimate, sizes the sweep with it; StorageBytes sizes the matrix.
func PackedLayout(format MatrixFormat, n, bandwidth, order int, impulses bool) (MatrixFormat, int, error) {
	resolved, err := resolveFormat(format, n, bandwidth, impulses)
	if err != nil {
		return "", 0, err
	}
	return resolved, packedWords(resolved, n, order), nil
}

// packedWords is the float64 count of one packed buffer of a fused
// sweep's layout on the resolved storage (see PackedLayout).
func packedWords(resolved MatrixFormat, n, order int) int {
	if resolved == FormatBand {
		return (order + 1) * bandPlaneStride(n)
	}
	return packedLanes(order) * n
}

// packedLanes is P, the words per state of the interleaved CSR32 layout:
// order+1 rounded up to a multiple of 4.
func packedLanes(order int) int { return (order + 4) &^ 3 }
