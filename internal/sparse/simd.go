package sparse

import "os"

// Runtime SIMD dispatch for the fused sweep kernels. On amd64 hosts with
// AVX2 (hasAVX2, detected once via CPUID/XGETBV) the order-3 interleaved
// kernels for the band, CSR32 and QBD formats run assembly bodies that
// replay the scalar loops' exact floating-point operation sequence, so
// every dispatch choice is bitwise identical — the kill-switches below
// exist for A/B measurement and for exercising both paths in tests on
// one machine, never for correctness.

// Sweep kernel labels reported by Sweep.Kernel (and from there
// core.Stats.SweepKernel, the solver-stats JSON and the /metrics
// kernel counters).
const (
	// KernelScalar: the pure-Go loops — no hardware support, a
	// kill-switch, the serial reference sweep, or a run shape without a
	// vector body (planar layouts, empty matrices, QBDs without an
	// interior level).
	KernelScalar = "scalar"
	// KernelAVX2: the AVX2 assembly kernels served the bulk rows (QBD
	// boundary levels and partial tiles still use the scalar loops).
	KernelAVX2 = "avx2"
)

// SIMDAvailable reports whether the running CPU and OS support the AVX2
// sweep kernels. False off amd64 and on amd64 hardware without
// AVX2/OS-enabled YMM state; the kill-switches do not affect it.
func SIMDAvailable() bool { return hasAVX2 }

// simdEnvDisabled reports the process-wide kill-switch: SOMRM_NOSIMD set
// to anything but the empty string or "0" forces the scalar kernels.
// Read at sweep construction (and SetNoSIMD), not per iteration, so
// tests can flip it with t.Setenv.
func simdEnvDisabled() bool {
	v := os.Getenv("SOMRM_NOSIMD")
	return v != "" && v != "0"
}

// SetNoSIMD forces the pure-Go scalar kernels for this sweep when
// disable is true, regardless of hardware support; false restores the
// default dispatch (AVX2 where available, unless SOMRM_NOSIMD is set).
// Bitwise neutral either way.
func (s *Sweep) SetNoSIMD(disable bool) {
	s.nosimd = disable
	s.resolveSIMD()
}

// resolveSIMD computes the effective dispatch gate from hardware support
// and the two kill-switches. Called at construction and from SetNoSIMD.
func (s *Sweep) resolveSIMD() {
	s.simd = hasAVX2 && !s.nosimd && !simdEnvDisabled()
}

// Kernel reports the compute kernel the last Run or RunReference
// dispatched: KernelAVX2 or KernelScalar. Empty before the first run.
func (s *Sweep) Kernel() string { return s.kernel }

// resolveKernel labels the coming run's dispatch: KernelAVX2 exactly
// when the run shape reaches one of the assembly bodies — the
// interleaved order-3 layout on a format with a vector kernel (band,
// non-empty CSR32, or QBD with at least one interior level) and the SIMD
// gate open.
func (s *Sweep) resolveKernel(interleaved bool) string {
	if !interleaved || !s.simd {
		return KernelScalar
	}
	switch s.format {
	case FormatBand:
		return KernelAVX2
	case FormatCSR32:
		if len(s.a.val) > 0 {
			return KernelAVX2
		}
	case FormatQBD:
		if s.qbd.n >= 3*s.qbd.b {
			return KernelAVX2
		}
	}
	return KernelScalar
}

// accTile3 applies the active Poisson accumulations for rows [t0, t1) of
// the interleaved next buffer; pad4 is the layout's leading padding in
// float64 words (band runs carry lo*4, the others 0). Splitting the
// accumulation pass from the vector kernel is bitwise neutral: each
// a_j[i] += w*s_j sees exactly the fused scalar switch's operands (the
// stored s_j reloads bit-exactly), and only work between different
// (plan, element) pairs is reordered — unobservable in float64.
func (s *Sweep) accTile3(t0, t1 int, next4 []float64, pad4 int, active []accPair) {
	for _, ap := range active {
		sweepAcc3AVX2(t1-t0, &next4[pad4+t0*4], &ap.acc[0][t0], &ap.acc[1][t0], &ap.acc[2][t0], &ap.acc[3][t0], ap.w)
	}
}

// fuseBlock3CompactAVX2 is the AVX2 dispatch of fuseBlock3Compact:
// tiles of s.tile rows run the assembly recursion body, then the
// accumulation passes while the tile's next values are cache-hot. Only
// called with s.simd set and a non-empty matrix.
func (s *Sweep) fuseBlock3CompactAVX2(lo, hi int, cur4, next4 []float64, active []accPair) {
	rowPtr, val := s.a.rowPtr, s.a.val
	col32 := s.col32
	for t0 := lo; t0 < hi; t0 += s.tile {
		t1 := t0 + s.tile
		if t1 > hi {
			t1 = hi
		}
		csr32Fuse3AVX2(t1-t0, &rowPtr[t0], &col32[0], &val[0], &cur4[0], &cur4[t0*4], &next4[t0*4], &s.diag1[t0], &s.diag2[t0])
		s.accTile3(t0, t1, next4, 0, active)
	}
}

// fuseBlock3QBDAVX2 is the AVX2 dispatch of fuseBlock3QBD: the
// block-aligned run of full interior levels inside [lo, hi) goes to the
// assembly body (whose per-level window is a clean strided stream),
// tiled with the accumulation passes like the CSR path; boundary levels
// and block-partial edge rows keep the scalar kernel, which also fuses
// their accumulation. Every row is computed and accumulated exactly
// once, with the reference operation sequence either way.
func (s *Sweep) fuseBlock3QBDAVX2(lo, hi int, cur4, next4 []float64, active []accPair) {
	qb := s.qbd
	b, n := qb.b, qb.n
	ilo, ihi := lo, hi
	if ilo < b {
		ilo = b
	}
	if m := n - b; ihi > m {
		ihi = m
	}
	var alo, ahi int
	if ilo < ihi {
		alo = (ilo + b - 1) / b * b // first whole interior block in range
		ahi = ihi / b * b           // end of the last one
	}
	if alo >= ahi {
		s.fuseBlock3QBD(lo, hi, cur4, next4, active)
		return
	}
	if lo < alo {
		s.fuseBlock3QBD(lo, alo, cur4, next4, active)
	}
	stepRows := s.tile / b * b
	if stepRows < b {
		stepRows = b
	}
	for t0 := alo; t0 < ahi; t0 += stepRows {
		t1 := t0 + stepRows
		if t1 > ahi {
			t1 = ahi
		}
		qbd3AVX2((t1-t0)/b, b, &qb.val[t0*3*b], &cur4[(t0-b)*4], &cur4[t0*4], &next4[t0*4], &s.diag1[t0], &s.diag2[t0])
		s.accTile3(t0, t1, next4, 0, active)
	}
	if ahi < hi {
		s.fuseBlock3QBD(ahi, hi, cur4, next4, active)
	}
}
