package core

import (
	"math"
	"os"
	"testing"

	"somrm/internal/sparse"
)

// TestSolveSweepKernelStats pins the solver-level SIMD plumbing: the
// default solve reports the hardware kernel in Stats.SweepKernel, the
// SOMRM_NOSIMD kill-switch forces the scalar loops (and the stats say
// so), and the two solves agree bit for bit — the dispatch is an
// optimization, never an approximation.
func TestSolveSweepKernelStats(t *testing.T) {
	m := birthDeathModel(t, 96)

	def, err := m.AccumulatedReward(1.5, 3, &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The default dispatch is AVX2 where the hardware has it, unless the
	// SOMRM_NOSIMD kill-switch holds every sweep scalar.
	killSwitch := os.Getenv("SOMRM_NOSIMD")
	want := sparse.KernelScalar
	if sparse.SIMDAvailable() && (killSwitch == "" || killSwitch == "0") {
		want = sparse.KernelAVX2
	}
	if def.Stats.SweepKernel != want {
		t.Fatalf("Stats.SweepKernel = %q, want %q (SIMDAvailable=%v, SOMRM_NOSIMD=%q)",
			def.Stats.SweepKernel, want, sparse.SIMDAvailable(), killSwitch)
	}

	// The switch is read when the solve builds its sweep.
	t.Setenv("SOMRM_NOSIMD", "1")
	off, err := m.AccumulatedReward(1.5, 3, &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.SweepKernel != sparse.KernelScalar {
		t.Fatalf("Stats.SweepKernel = %q with SOMRM_NOSIMD=1, want %q",
			off.Stats.SweepKernel, sparse.KernelScalar)
	}
	for j := range def.Moments {
		if math.Float64bits(def.Moments[j]) != math.Float64bits(off.Moments[j]) {
			t.Fatalf("moment %d: SIMD %x != scalar %x — kill-switch changed the result",
				j, math.Float64bits(def.Moments[j]), math.Float64bits(off.Moments[j]))
		}
	}
}
