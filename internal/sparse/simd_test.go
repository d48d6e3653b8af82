package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// runOrder3 runs one order-3 impulse-free sweep (the interleaved hot
// shape) with a single full-window plan and returns the accumulators, so
// the kernel-label and forced-dispatch tests share a body.
func runOrder3(t *testing.T, s *Sweep, gMax int, wseed int64) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(wseed))
	w := randWeights(rng, gMax)
	cur, next, plans := newRunState(s, [][]float64{w}, []int{0}, []int{gMax})
	if _, err := s.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
		t.Fatal(err)
	}
	return plans[0].Acc
}

// TestSweepSIMDKillSwitches pins the dispatch gate: the SOMRM_NOSIMD
// environment variable and SetNoSIMD both force the scalar kernels (and
// the Kernel label says so), "0"/unset restore the hardware default, and
// the label flips back when the switch is released.
func TestSweepSIMDKillSwitches(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a, d1, d2 := bandedSweepFixture(t, rng, 96, 1, 1, 3)

	hw := KernelScalar
	if SIMDAvailable() {
		hw = KernelAVX2
	}

	t.Run("env-set", func(t *testing.T) {
		t.Setenv("SOMRM_NOSIMD", "1")
		s, err := NewSweepWithFormat(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		runOrder3(t, s, 12, 1)
		if got := s.Kernel(); got != KernelScalar {
			t.Fatalf("Kernel() = %q with SOMRM_NOSIMD=1, want %q", got, KernelScalar)
		}
	})

	t.Run("env-zero", func(t *testing.T) {
		t.Setenv("SOMRM_NOSIMD", "0")
		s, err := NewSweepWithFormat(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		runOrder3(t, s, 12, 1)
		if got := s.Kernel(); got != hw {
			t.Fatalf("Kernel() = %q with SOMRM_NOSIMD=0, want hardware default %q", got, hw)
		}
	})

	t.Run("setter", func(t *testing.T) {
		s, err := NewSweepWithFormat(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		s.SetNoSIMD(true)
		runOrder3(t, s, 12, 1)
		if got := s.Kernel(); got != KernelScalar {
			t.Fatalf("Kernel() = %q after SetNoSIMD(true), want %q", got, KernelScalar)
		}
		// Releasing the setter restores the default dispatch, which the
		// process-wide switch may still hold scalar.
		def := hw
		if simdEnvDisabled() {
			def = KernelScalar
		}
		s.SetNoSIMD(false)
		runOrder3(t, s, 12, 1)
		if got := s.Kernel(); got != def {
			t.Fatalf("Kernel() = %q after SetNoSIMD(false), want default %q", got, def)
		}
	})

	t.Run("reference-always-scalar", func(t *testing.T) {
		s, err := NewSweepWithFormat(a, d1, d2, nil, 3, 1, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		cur, next, plans := newRunState(s, [][]float64{make([]float64, 13)}, []int{0}, []int{12})
		if _, err := s.RunReference(context.Background(), 12, cur, next, plans, 32); err != nil {
			t.Fatal(err)
		}
		if got := s.Kernel(); got != KernelScalar {
			t.Fatalf("Kernel() = %q after RunReference, want %q", got, KernelScalar)
		}
	})
}

// TestSweepKernelLabel pins which run shapes the dispatcher labels as
// served by the vector kernels: exactly the packed layouts with an
// assembly body (band at every order and size — bidiagonal padded into
// the window too, and three rows with no whole 4-row group — and order-3
// non-empty CSR32 and QBD with an interior level),
// scalar for everything else even with the gate open. With the gate
// closed (no AVX2, or SOMRM_NOSIMD set) every shape is scalar.
func TestSweepKernelLabel(t *testing.T) {
	vec := KernelAVX2
	if !SIMDAvailable() || simdEnvDisabled() {
		vec = KernelScalar
	}
	rng := rand.New(rand.NewSource(72))

	// A 2-level block-tridiagonal matrix: entry (0, 15) forces reach 15,
	// so QBDBlock resolves b = 8 and there is no interior level for the
	// assembly body (n < 3b).
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
	}{
		{"band-tridiagonal", bandedFixture(t, rng, 96, 1, 1), FormatBand, FormatBand, 3, vec},
		{"band-bidiagonal", bandedFixture(t, rng, 96, 0, 1), FormatAuto, FormatBand, 3, vec},
		{"band-order12", bandedFixture(t, rng, 96, 1, 1), FormatBand, FormatBand, 12, vec},
		{"band-three-rows", bandedFixture(t, rng, 3, 1, 1), FormatBand, FormatBand, 3, vec},
		{"csr32", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 3, vec},
		{"qbd-interior", qbdFixture(t, rng, 12, 8), FormatQBD, FormatQBD, 3, vec},
		{"qbd-two-level", twoLevel, FormatQBD, FormatQBD, 3, KernelScalar},
		{"planar-order2", bandedFixture(t, rng, 96, 1, 1), FormatCSR, FormatCSR32, 2, KernelScalar},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d1, d2 := randDiags(rng, tc.a.rows)
			s, err := NewSweepWithFormat(tc.a, d1, d2, nil, tc.order, 1, tc.format)
			if err != nil {
				t.Fatal(err)
			}
			if s.Format() != tc.wantFormat {
				t.Fatalf("format %q resolved to %q, want %q", tc.format, s.Format(), tc.wantFormat)
			}
			runOrder3(t, s, 10, 2)
			if got := s.Kernel(); got != tc.want {
				t.Fatalf("Kernel() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSweepForcedSIMDMatchesForcedScalar is the in-package half of the
// SIMD difftest gate: over a 50-seed corpus rotating the three vector
// formats (band, CSR32, QBD), worker counts, temporal blocking, and
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
			a, format = qbdFixture(t, rng, 3+rng.Intn(8), b), FormatQBD
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

		run := func(nosimd bool) ([]SweepPlan, string) {
			s, err := NewSweepWithFormat(a, d1, d2, nil, 3, workers, format)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s.SetNoSIMD(nosimd)
			s.SetTemporalBlock(tblock)
			cur, next, plans := newRunState(s, weights, firsts, lasts)
			if _, err := s.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
				t.Fatalf("seed %d nosimd %v: %v", seed, nosimd, err)
			}
			return plans, s.Kernel()
		}

		simdPlans, simdKernel := run(false)
		scalarPlans, scalarKernel := run(true)
		if scalarKernel != KernelScalar {
			t.Fatalf("seed %d: forced-scalar run reported kernel %q", seed, scalarKernel)
		}
		requireAccBitwise(t, fmt.Sprintf("seed %d format %q workers %d tblock %d (simd kernel %q) vs scalar",
			seed, format, workers, tblock, simdKernel), simdPlans, scalarPlans, 3, n)
	}
}
