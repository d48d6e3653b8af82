package sparse

import "os"

// Runtime SIMD dispatch for the fused sweep kernels. On amd64 hosts with
// AVX2 (hasAVX2, detected once via CPUID/XGETBV) the band kernel at every
// moment order (row-lane) and the order-3 CSR32 kernel (interleaved) run
// assembly bodies that replay the scalar loops' exact floating-point
// operation sequence, so every dispatch choice is bitwise identical — the
// SOMRM_NOSIMD kill-switch exists for A/B measurement and for exercising
// both paths in tests on one machine, never for correctness.

// Sweep kernel labels reported by Sweep.Kernel (and from there
// core.Stats.SweepKernel, the solver-stats JSON and the /metrics
// kernel counters).
const (
	// KernelScalar: the pure-Go loops — no hardware support, the
	// kill-switch, the serial reference sweep, or a run shape without a
	// vector body (planar layouts, empty matrices).
	KernelScalar = "scalar"
	// KernelAVX2: the AVX2 assembly kernels served the rows.
	KernelAVX2 = "avx2"
)

// SIMDAvailable reports whether the running CPU and OS support the AVX2
// sweep kernels. False off amd64 and on amd64 hardware without
// AVX2/OS-enabled YMM state; the kill-switch does not affect it.
func SIMDAvailable() bool { return hasAVX2 }

// simdEnvDisabled reports the process-wide kill-switch: SOMRM_NOSIMD set
// to anything but the empty string or "0" forces the scalar kernels.
// NewSweep reads it once, so a sweep keeps the dispatch it was built
// with and tests can flip the switch between sweeps with t.Setenv.
func simdEnvDisabled() bool {
	v := os.Getenv("SOMRM_NOSIMD")
	return v != "" && v != "0"
}

// Kernel reports the compute kernel the last Run or RunReference
// dispatched: KernelAVX2 or KernelScalar. Empty before the first run.
func (s *Sweep) Kernel() string { return s.kernel }

// resolveKernel labels the coming run's dispatch: KernelAVX2 exactly
// when the run shape reaches one of the assembly bodies — a row-lane or
// interleaved layout (band at any order and size, or non-empty order-3
// CSR32) and the SIMD gate open.
func (s *Sweep) resolveKernel() string {
	if s.layout == layoutPlanar || !s.simd {
		return KernelScalar
	}
	if s.format == FormatBand || len(s.a.val) > 0 {
		return KernelAVX2
	}
	return KernelScalar
}

// fuseBlock3CompactAVX2 is the AVX2 dispatch of fuseBlock3Compact:
// tiles of s.tile rows run the assembly recursion body, then the
// accumulation passes while the tile's next values are cache-hot. Only
// called with s.simd set and a non-empty matrix. Splitting the
// accumulation pass from the vector kernel is bitwise neutral: each
// a_j[i] += w*s_j sees exactly the fused scalar switch's operands (the
// stored s_j reloads bit-exactly), and only work between different
// (plan, element) pairs is reordered — unobservable in float64.
func (s *Sweep) fuseBlock3CompactAVX2(lo, hi int, cur4, next4 []float64, active []accPair) {
	rowPtr, val := s.a.rowPtr, s.a.val
	col32 := s.col32
	for t0 := lo; t0 < hi; t0 += s.tile {
		t1 := t0 + s.tile
		if t1 > hi {
			t1 = hi
		}
		csr32Fuse3AVX2(t1-t0, &rowPtr[t0], &col32[0], &val[0], &cur4[0], &cur4[t0*4], &next4[t0*4], &s.diag1[t0], &s.diag2[t0])
		for _, ap := range active {
			sweepAcc3AVX2(t1-t0, &next4[t0*4], &ap.acc[0][t0], &ap.acc[1][t0], &ap.acc[2][t0], &ap.acc[3][t0], ap.w)
		}
	}
}
