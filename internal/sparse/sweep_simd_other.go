//go:build !amd64

package sparse

// Stubs for the AVX2 sweep kernels off amd64. hasAVX2 is constant false
// there (band_simd_other.go), Sweep.simd can therefore never be set, and
// the compiler removes the dispatch branches — these bodies exist only
// so the package compiles on every GOARCH.

func csr32Fuse3AVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur4, self, next, d1, d2 *float64) {
	panic("sparse: csr32Fuse3AVX2 called without AVX2 support")
}

func sweepAcc3AVX2(n int, next, a0, a1, a2, a3 *float64, w float64) {
	panic("sparse: sweepAcc3AVX2 called without AVX2 support")
}
