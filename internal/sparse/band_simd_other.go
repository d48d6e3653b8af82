//go:build !amd64

package sparse

// hasAVX2 is constant false off amd64, so the compiler removes the
// dispatch branches and the stubs below are never called.
const hasAVX2 = false

func bandLanesAVX2(n int, band, cur, next *float64, stride, order int, d1, d2, acc *float64, w float64) {
	panic("sparse: bandLanesAVX2 called without AVX2 support")
}

func planeAccAVX2(n int, next *float64, stride, planes int, acc *float64, accStride int, w float64) {
	panic("sparse: planeAccAVX2 called without AVX2 support")
}
