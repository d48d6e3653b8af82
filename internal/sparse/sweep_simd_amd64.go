//go:build amd64

package sparse

// Go contract for the AVX2 body of the CSR32 fused kernel
// (sweep_simd_amd64.s), bitwise identical to the scalar loops; see the
// assembly file's header for the argument.

// csrLanesAVX2 computes n >= 1 rows of the interleaved recursion over
// the compact-index CSR, P = 4·groups words per state: rowPtr is
// pre-offset to the first row (&rowPtr[lo]), col32/val/cur are the array
// bases (columns index cur absolutely), and self/next/d1/d2 are
// pre-offset to the first row's state, output state and diagonals.
//
//go:noescape
func csrLanesAVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur, self, next, d1, d2 *float64, groups int)
