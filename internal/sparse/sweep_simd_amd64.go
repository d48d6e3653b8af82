//go:build amd64

package sparse

// Go contracts for the AVX2 body of the CSR32 fused kernel and the
// Poisson accumulation pass (sweep_simd_amd64.s). Both replay the corresponding scalar loops' exact per-element operation
// sequence — separate vmulpd/vaddpd steps, +0 seeds, vblendpd coupling
// masks — so their output is bitwise identical to the Go code; see the
// assembly file's header for the full argument.

// csr32Fuse3AVX2 computes n rows of the order-3 interleaved recursion
// over the compact-index CSR: rowPtr is pre-offset to the first row
// (&rowPtr[lo]), col32/val/cur4 are the array bases (columns index cur4
// absolutely), and self/next/d1/d2 are pre-offset to the first row's
// state group, output group and coupling diagonals. Poisson accumulation
// is applied separately (sweepAcc3AVX2) on the stored next values.
//
//go:noescape
func csr32Fuse3AVX2(n int, rowPtr *int, col32 *uint32, val *float64, cur4, self, next, d1, d2 *float64)

// sweepAcc3AVX2 applies one plan's Poisson accumulation a_j[i] += w*s_j
// for n rows of the interleaved next buffer (next pre-offset to the
// first row's group, a0..a3 to the planar accumulator rows).
//
//go:noescape
func sweepAcc3AVX2(n int, next, a0, a1, a2, a3 *float64, w float64)
