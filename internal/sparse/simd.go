package sparse

import "os"

// Runtime SIMD dispatch for the fused sweep kernels. On amd64 hosts with
// AVX2 (hasAVX2, detected once via CPUID/XGETBV) the band kernel
// (row-lane) and the impulse-free CSR32 kernel (interleaved) run assembly
// bodies at every moment order, and every fused run accumulates through
// planeAccAVX2; each replays the scalar loops' exact
// floating-point operation sequence, so every dispatch choice is bitwise
// identical — the SOMRM_NOSIMD kill-switch exists for A/B measurement
// and for exercising both paths in tests on one machine, never for
// correctness.

// Sweep kernel labels reported by Sweep.Kernel (and from there
// core.Stats.SweepKernel, the solver-stats JSON and the /metrics
// kernel counters).
const (
	// KernelScalar: the pure-Go recursion loops — no hardware support,
	// the kill-switch, the serial reference sweep, or a run shape without
	// a vector recursion body (impulse sweeps, empty matrices; their
	// accumulation passes still vectorize behind the open gate).
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

// Kernel reports the compute kernel the last run dispatched: KernelAVX2
// or KernelScalar. Empty before the first run.
func (s *Sweep) Kernel() string { return s.kernel }

// resolveKernel labels the coming run's dispatch: KernelAVX2 exactly
// when the run shape reaches one of the assembly recursion bodies — a
// band sweep, or a fused impulse-free sweep over a non-empty CSR32
// matrix, at any order — and the SIMD gate is open.
func (s *Sweep) resolveKernel() string {
	if s.simd && (s.format == FormatBand || !s.reference() && len(s.imp) == 0 && len(s.a.val) > 0) {
		return KernelAVX2
	}
	return KernelScalar
}
