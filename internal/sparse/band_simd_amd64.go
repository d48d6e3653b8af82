//go:build amd64

package sparse

// hasAVX2 reports whether the CPU and OS support the 4-lane double
// vector (AVX2 + OS-enabled YMM state) the tridiagonal band kernel's
// assembly fast path needs. Detected once at startup; the scalar Go loop
// remains the fallback and the bitwise reference.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving (XCR0 bits 1-2),
	// or executing VEX-encoded instructions faults.
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

// bandLanesAVX2 is the assembly body of fuseBlockBand for n >= 1 rows
// at every moment order, on the row-lane layout: band is
// &val[lo] of the band's sub-diagonal plane, cur and next are the first
// row's cells in state plane 0 (&cur[1+lo]), stride is the shared plane
// stride in words of the band and both state buffers, order the highest
// moment, and d1/d2 are pre-offset to row lo. acc, when non-nil, is the
// first row's cell in plane 0 of a single plan's accumulator block
// (&acc[1+lo]), which shares the state's row-lane layout, and receives
// the plan's Poisson accumulation a_j[i] += w*s_j fused into the body;
// nil leaves accumulation to the caller. Each vector lane executes exactly the scalar loop's operation
// sequence with the same IEEE rounding (vmulpd/vaddpd, never fused), so
// results are bitwise identical to the Go code. The last n mod 4 rows run
// as one masked group, which loads and stores no cell of a masked-off
// lane.
//
//go:noescape
func bandLanesAVX2(n int, band, cur, next *float64, stride, order int, d1, d2, acc *float64, w float64)

// planeAccAVX2 applies one plan's accumulation a_j[i] += w*next_j[i]
// for n >= 1 rows (the last n mod 4 masked) of planes consecutive next
// planes: next and acc point at plane 0's first row, and the planes lie
// stride and accStride words apart. A CSR32 tile is one plane of P words
// per row.
//
//go:noescape
func planeAccAVX2(n int, next *float64, stride, planes int, acc *float64, accStride int, w float64)
