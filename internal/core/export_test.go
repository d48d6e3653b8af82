package core

// Hooks for the external tests in package core_test, which import the
// differential harness (itself an importer of this package).
var (
	MomentBound   = momentBound
	FactorEpsilon = factorEpsilon
)
