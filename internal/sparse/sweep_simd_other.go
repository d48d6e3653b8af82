//go:build !amd64

package sparse

// Stub for the AVX2 CSR32 sweep kernel off amd64. hasAVX2 is constant
// false there (band_simd_other.go), Sweep.simd can therefore never be
// set, and the compiler removes the dispatch branches — this body exists
// only so the package compiles on every GOARCH.

func csrLanesAVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur, self, next, d1, d2 *float64, groups int) {
	panic("sparse: csrLanesAVX2 called without AVX2 support")
}
