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

// bandLanesAVX2 is the assembly body of fuseBlock3Band for n rows (a
// multiple of 4) with no Poisson accumulation, on the row-lane layout:
// band is &val[lo] of the band's sub-diagonal plane, cur and next are
// the rows' cells in state plane 0 (&cur4[1+lo]), stride is the shared
// plane stride in words of the band and both state buffers, and d1/d2
// are pre-offset to row lo. Each vector lane executes exactly the scalar
// loop's operation sequence with the same IEEE rounding (vmulpd/vaddpd,
// never fused), so results are bitwise identical to the Go code.
//
//go:noescape
func bandLanesAVX2(n int, band, cur, next *float64, stride int, d1, d2 *float64)

// bandLanesAccAVX2 is bandLanesAVX2 fused with the single-plan Poisson
// accumulation acc[j][i] += w*s_j, written as vectors into the four
// planar accumulator rows a0..a3 (pre-offset to row lo).
//
//go:noescape
func bandLanesAccAVX2(n int, band, cur, next *float64, stride int, d1, d2, a0, a1, a2, a3 *float64, w float64)

// planeAcc4AVX2 applies one plan's accumulation a_j[i] += w*next_j[i]
// for n rows (a multiple of 4) of the four next planes (next at plane
// 0's cell of the first row).
//
//go:noescape
func planeAcc4AVX2(n int, next *float64, stride int, a0, a1, a2, a3 *float64, w float64)
