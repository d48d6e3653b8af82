//go:build !amd64

package sparse

// hasAVX2 is constant false off amd64, so the compiler removes the
// dispatch branches and the stubs below are never called.
const hasAVX2 = false

func bandLanesAVX2(n int, band, cur, next *float64, stride int, d1, d2 *float64) {
	panic("sparse: bandLanesAVX2 called without AVX2 support")
}

func bandLanesAccAVX2(n int, band, cur, next *float64, stride int, d1, d2, a0, a1, a2, a3 *float64, w float64) {
	panic("sparse: bandLanesAccAVX2 called without AVX2 support")
}

func planeAcc4AVX2(n int, next *float64, stride int, a0, a1, a2, a3 *float64, w float64) {
	panic("sparse: planeAcc4AVX2 called without AVX2 support")
}
