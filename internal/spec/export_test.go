package spec

import "somrm/internal/sparse"

// GeneratorPaths exposes both generator assemblies to the external tests:
// the one-pass sorted path (nil when the spec is not eligible) and the
// Builder path.
func GeneratorPaths(m *Model) (sorted, built *sparse.CSR, err error) {
	built, err = m.builtGenerator()
	return m.sortedGenerator(), built, err
}

// Hash equivalence helpers for the external property test.
var (
	CheckHashPair = checkHashPair
	HashVariant   = hashVariant
)
