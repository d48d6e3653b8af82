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

// bandTri3AVX2 is the assembly body of fuseBlock3Band for n rows with
// no Poisson accumulation: pointers are pre-offset to the first row's
// band triple (bval), state window (cur, at the row's cur4[i*4]), output
// (next, at next4[4+i*4]), and order-coupling diagonals. Each lane
// executes exactly the scalar loop's operation sequence with the same
// IEEE rounding (vmulpd/vaddpd, never fused), so results are bitwise
// identical to the Go code.
//
//go:noescape
func bandTri3AVX2(n int, bval, cur, next, d1, d2 *float64)

// bandTri3AccAVX2 is bandTri3AVX2 fused with the single-plan Poisson
// accumulation acc[j][i] += w*s_j into the four planar accumulator rows.
//
//go:noescape
func bandTri3AccAVX2(n int, bval, cur, next, d1, d2, a0, a1, a2, a3 *float64, w float64)
