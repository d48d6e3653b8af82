package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// runOnePlan runs s for gMax iterations with a single full-window plan,
// so the kernel-label and kill-switch tests share a body.
func runOnePlan(t *testing.T, s *Sweep, gMax int, wseed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(wseed))
	w := randWeights(rng, gMax)
	cur, plans := newRunState(s, [][]float64{w}, []int{0}, []int{gMax})
	if _, err := s.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
		t.Fatal(err)
	}
}

// forceScalar closes the sweep's SIMD gate when scalar is set, as
// building it under SOMRM_NOSIMD does, so one test run exercises both
// dispatch arms.
func forceScalar(s *Sweep, scalar bool) {
	if scalar {
		s.simd = false
	}
}

// TestSweepSIMDKillSwitches pins the dispatch gate: the SOMRM_NOSIMD
// environment variable, read when the sweep is built, forces the scalar
// kernels (and the Kernel label says so), "0"/unset restore the hardware
// default, and the reference sweep is always scalar.
func TestSweepSIMDKillSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a, d1, d2 := bandedSweepFixture(t, rng, 96, 1, 1, 3)

	hw := KernelScalar
	if SIMDAvailable() {
		hw = KernelAVX2
	}

	t.Run("env-set", func(t *testing.T) {
		t.Setenv("SOMRM_NOSIMD", "1")
		s, err := newTestSweep(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		runOnePlan(t, s, 12, 1)
		if got := s.Kernel(); got != KernelScalar {
			t.Fatalf("Kernel() = %q with SOMRM_NOSIMD=1, want %q", got, KernelScalar)
		}
	})

	t.Run("env-zero", func(t *testing.T) {
		t.Setenv("SOMRM_NOSIMD", "0")
		s, err := newTestSweep(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		runOnePlan(t, s, 12, 1)
		if got := s.Kernel(); got != hw {
			t.Fatalf("Kernel() = %q with SOMRM_NOSIMD=0, want hardware default %q", got, hw)
		}
	})

	t.Run("reference-always-scalar", func(t *testing.T) {
		s, err := newTestSweep(a, d1, d2, nil, 3, 0, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		runOnePlan(t, s, 12, 1)
		if got := s.Kernel(); got != KernelScalar {
			t.Fatalf("Kernel() = %q after a reference run, want %q", got, KernelScalar)
		}
	})
}

// TestSweepKernelLabel pins which run shapes the dispatcher labels as
// served by the vector kernels: exactly the shapes with an assembly body
// (band at every order and size — bidiagonal padded into the window too,
// and three rows with no whole 4-row group — and impulse-free non-empty
// CSR32 at every order, which block-tridiagonal (QBD) matrices resolve to
// under auto whatever their level count), scalar for impulse sweeps even
// with the gate open. With the gate closed (no AVX2, or SOMRM_NOSIMD set)
// every shape is scalar.
func TestSweepKernelLabel(t *testing.T) {
	vec := KernelAVX2
	if !SIMDAvailable() || simdEnvDisabled() {
		vec = KernelScalar
	}
	rng := rand.New(rand.NewSource(72))

	// A 2-level block-tridiagonal matrix of 8-state levels (entry (0, 15)
	// reaches across both): no interior level, which the retired QBD
	// storage ran on its scalar loops.
	twoLevel := func() *CSR {
		b := NewBuilder(16, 16)
		for i := 0; i < 16; i++ {
			if err := b.Add(i, i, rng.Float64()+0.1); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add(0, 15, 0.5); err != nil {
			t.Fatal(err)
		}
		return b.Build()
	}()

	cases := []struct {
		name       string
		a          *CSR
		format     MatrixFormat
		wantFormat MatrixFormat
		order      int
		want       string
		impulses   bool
	}{
		{"band-tridiagonal", bandedFixture(t, rng, 96, 1, 1), FormatBand, FormatBand, 3, vec, false},
		{"band-bidiagonal", bandedFixture(t, rng, 96, 0, 1), FormatAuto, FormatBand, 3, vec, false},
		{"band-order12", bandedFixture(t, rng, 96, 1, 1), FormatBand, FormatBand, 12, vec, false},
		{"band-three-rows", bandedFixture(t, rng, 3, 1, 1), FormatBand, FormatBand, 3, vec, false},
		{"csr32", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 3, vec, false},
		{"qbd-interior", qbdFixture(t, rng, 12, 8), FormatAuto, FormatCSR32, 3, vec, false},
		{"qbd-two-level", twoLevel, FormatAuto, FormatCSR32, 3, vec, false},
		{"csr32-order0", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 0, vec, false},
		{"csr32-order1", bandedFixture(t, rng, 96, 2, 1), FormatAuto, FormatCSR32, 1, vec, false},
		{"csr32-order2", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 2, vec, false},
		{"csr32-order4", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 4, vec, false},
		{"csr32-order5", bandedFixture(t, rng, 96, 1, 3), FormatAuto, FormatCSR32, 5, vec, false},
		{"csr32-order12", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 12, vec, false},
		{"impulse-order3", bandedFixture(t, rng, 96, 1, 1), FormatAuto, FormatCSR32, 3, KernelScalar, true},
		{"impulse-order12", bandedFixture(t, rng, 96, 2, 2), FormatCSR, FormatCSR32, 12, KernelScalar, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d1, d2 := randDiags(rng, tc.a.rows)
			var imp []*CSR
			if tc.impulses {
				// The matrix itself as every impulse matrix: all on its pattern.
				for m := 0; m < tc.order; m++ {
					imp = append(imp, tc.a)
				}
			}
			s, err := newTestSweep(tc.a, d1, d2, imp, tc.order, 1, tc.format)
			if err != nil {
				t.Fatal(err)
			}
			if s.Format() != tc.wantFormat {
				t.Fatalf("format %q resolved to %q, want %q", tc.format, s.Format(), tc.wantFormat)
			}
			runOnePlan(t, s, 10, 2)
			if got := s.Kernel(); got != tc.want {
				t.Fatalf("Kernel() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSweepForcedSIMDMatchesForcedScalar is the in-package half of the
// SIMD difftest gate: over a 50-seed corpus rotating band, CSR32 and
// block-tridiagonal (QBD) matrices under auto, worker counts, temporal
// blocking, and
// multi-plan windows, a forced-SIMD sweep and a forced-scalar sweep over
// identical inputs must agree bit for bit. On hosts without AVX2 both
// runs take the scalar path and the test degenerates to a determinism
// check.
func TestSweepForcedSIMDMatchesForcedScalar(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var (
			a      *CSR
			format MatrixFormat
		)
		n := 32 + rng.Intn(160)
		switch seed % 3 {
		case 0:
			a, format = bandedFixture(t, rng, n, 1, 1), FormatBand
		case 1:
			a, format = bandedFixture(t, rng, n, rng.Intn(3), rng.Intn(3)), FormatCSR
		default:
			b := 2 + rng.Intn(7)
			a, format = qbdFixture(t, rng, 3+rng.Intn(8), b), FormatAuto
		}
		n = a.rows
		d1, d2 := randDiags(rng, n)

		gMax := 4 + rng.Intn(24)
		nPlans := 1 + rng.Intn(3)
		weights := make([][]float64, nPlans)
		firsts := make([]int, nPlans)
		lasts := make([]int, nPlans)
		for pi := range weights {
			w := make([]float64, gMax+1)
			for k := range w {
				if rng.Float64() < 0.85 {
					w[k] = rng.Float64()
				}
			}
			weights[pi] = w
			firsts[pi] = rng.Intn(gMax + 1)
			lasts[pi] = firsts[pi] + rng.Intn(gMax+1-firsts[pi])
		}
		workers := 1 + rng.Intn(4)
		tblock := []int{0, 1, 4}[rng.Intn(3)]

		run := func(nosimd bool) (*Sweep, []SweepPlan) {
			s, err := newTestSweep(a, d1, d2, nil, 3, workers, format)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			forceScalar(s, nosimd)
			s.SetTemporalBlock(tblock)
			cur, plans := newRunState(s, weights, firsts, lasts)
			if _, err := s.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
				t.Fatalf("seed %d nosimd %v: %v", seed, nosimd, err)
			}
			return s, plans
		}

		simd, simdPlans := run(false)
		scalar, scalarPlans := run(true)
		if scalar.Kernel() != KernelScalar {
			t.Fatalf("seed %d: forced-scalar run reported kernel %q", seed, scalar.Kernel())
		}
		requireAccBitwise(t, fmt.Sprintf("seed %d format %q workers %d tblock %d (simd kernel %q) vs scalar",
			seed, format, workers, tblock, simd.Kernel()), simd, simdPlans, unpackPlans(scalar, scalarPlans))
	}
}
