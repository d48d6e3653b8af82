package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"somrm/internal/brownian"
	"somrm/internal/core"
	"somrm/internal/models"
	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// corpusSize seeds always run; longCorpusSize more are added outside
// -short. The seeds are fixed (0..N) so failures reproduce exactly.
const (
	corpusSize     = 50
	longCorpusSize = 200
)

// TestDiffSeedCorpus is the differential harness: every seed generates a
// random model and cross-checks randomization vs the RK4 ODE baseline
// (vs the closed form too, when one exists).
func TestDiffSeedCorpus(t *testing.T) {
	n := corpusSize
	if !testing.Short() {
		n = longCorpusSize
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		if err := CheckSeed(int64(seed)); err != nil {
			t.Error(err)
		}
	}
}

// TestDiffSingleStateClosedForm pins the solvers to the exact normal
// moments E[B(t)^n] for B(t) ~ Normal(r t, sigma^2 t) on single-state
// models, the one case with a textbook answer.
func TestDiffSingleStateClosedForm(t *testing.T) {
	cases := []struct {
		name     string
		r, sigma float64
	}{
		{"drift only", 1.5, 0},
		{"negative drift", -2, 0.5},
		{"diffusion only", 0, 1},
		{"both", 0.7, 1.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := &spec.Model{States: 1, Rates: []float64{tc.r}, Variances: []float64{tc.sigma * tc.sigma}, Initial: []float64{1}}
			if err := CheckModel(sp, []float64{0.3, 1, 2.5}, 5); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDiffFrozenChain: a model with no transitions is a mixture of
// independent normals; the solver's degenerate path must agree with the
// ODE baseline there too.
func TestDiffFrozenChain(t *testing.T) {
	sp := &spec.Model{
		States:    3,
		Rates:     []float64{1, -0.5, 2},
		Variances: []float64{0.2, 0, 1},
		Initial:   []float64{0.25, 0.5, 0.25},
	}
	if err := CheckModel(sp, []float64{0.5, 1.5}, 4); err != nil {
		t.Error(err)
	}
}

// TestDiffPermutationInvariance: AccumulatedRewardAt must return bitwise
// identical results regardless of the order the time grid is presented
// in — the shared sweep may not couple the points.
func TestDiffPermutationInvariance(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := Generate(rng)
		model, err := sp.Build()
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		order := 1 + rng.Intn(3)
		times := make([]float64, 2+rng.Intn(5))
		for i := range times {
			times[i] = rng.Float64() * 3
		}
		base, err := model.AccumulatedRewardAt(times, order, nil)
		if err != nil {
			t.Logf("seed %d: solve: %v", seed, err)
			return false
		}

		perm := rng.Perm(len(times))
		shuffled := make([]float64, len(times))
		for i, p := range perm {
			shuffled[i] = times[p]
		}
		permuted, err := model.AccumulatedRewardAt(shuffled, order, nil)
		if err != nil {
			t.Logf("seed %d: permuted solve: %v", seed, err)
			return false
		}
		for i, p := range perm {
			if !reflect.DeepEqual(permuted[i].Moments, base[p].Moments) {
				t.Logf("seed %d: t=%g differs under permutation: %v vs %v",
					seed, shuffled[i], permuted[i].Moments, base[p].Moments)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if !testing.Short() {
		cfg.MaxCount = 60
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestDiffGeneratorProducesValidModels: every corpus seed must build; a
// generator that silently emits invalid specs would shrink the harness's
// coverage to nothing.
func TestDiffGeneratorProducesValidModels(t *testing.T) {
	var states, impulses, zeroVar int
	for seed := 0; seed < 500; seed++ {
		sp := Generate(rand.New(rand.NewSource(int64(seed))))
		if _, err := sp.Build(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		states += sp.States
		if len(sp.Impulses) > 0 {
			impulses++
		}
		for _, v := range sp.Variances {
			if v == 0 {
				zeroVar++
			}
		}
	}
	// The generator must actually exercise the advertised variety.
	if impulses < 100 {
		t.Errorf("only %d/500 models carry impulses", impulses)
	}
	if zeroVar == 0 {
		t.Error("no zero-variance states generated")
	}
	t.Logf("500 models: %.1f avg states, %d with impulses, %d zero-variance states",
		float64(states)/500, impulses, zeroVar)
}

// requireBitwise fails unless got matches ref bit for bit, moments and
// per-state vectors alike.
func requireBitwise(t *testing.T, label string, times []float64, order int, got, ref []*core.Result) {
	t.Helper()
	for k := range times {
		for j := 0; j <= order; j++ {
			if math.Float64bits(got[k].Moments[j]) != math.Float64bits(ref[k].Moments[j]) {
				t.Fatalf("%s t=%g: moment %d = %x, reference %x", label, times[k], j,
					math.Float64bits(got[k].Moments[j]), math.Float64bits(ref[k].Moments[j]))
			}
			gv, rv := got[k].StateMoments()[j], ref[k].StateMoments()[j]
			for i := range gv {
				if math.Float64bits(gv[i]) != math.Float64bits(rv[i]) {
					t.Fatalf("%s t=%g: vm[%d][%d] differs bitwise", label, times[k], j, i)
				}
			}
		}
	}
}

// sweepKernelFormats are the matrix formats the kernel gates force:
// "band" covers the band kernel on every impulse-free tridiagonal-window
// model and the compact fallback on the rest; "csr" pins the compact
// kernels, "auto" whatever the detector picks — all must stay inside the
// bitwise contract.
var sweepKernelFormats = []string{"auto", "csr", "band"}

// checkSweepKernelBitwise solves model at every sweepKernelFormats
// format × SIMD dispatch × worker count {0, 1, 2, 5} × temporal block
// depth {1, 2, 4, 8} and requires each solve to reproduce the serial
// reference sweep (SweepWorkers: -1) bit for bit.
//
// The temporal-block loop forces blocking depths over a tiny
// tile so the blocked driver engages on these small models, at every
// order and on impulse models too. Depth 8 with the corpus G
// makes ragged final groups routine. The SIMD dimension covers both
// kernel dispatches on capable hosts: SOMRM_NOSIMD=1, read when each
// solve builds its sweep, pins the pure-Go loops, and the caller's
// setting lets the AVX2 kernels serve the formats that have one (band,
// csr, and whatever auto resolves). On hosts without AVX2 (or under
// SOMRM_NOSIMD=1, as one CI arm runs) the two arms coincide on scalar —
// the gate still checks every format, worker count and blocking depth
// against the reference.
// Workers 0 is the production policy: automatic selection, which at
// corpus sizes is the inline 1-worker fused team.
func checkSweepKernelBitwise(t *testing.T, name string, model *core.Model, times []float64, order int) {
	t.Helper()
	ref, err := model.AccumulatedRewardAt(times, order, &core.Options{SweepWorkers: -1})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	// The scalar arm runs last; the caller's setting is restored for the
	// next model.
	defer t.Setenv("SOMRM_NOSIMD", os.Getenv("SOMRM_NOSIMD"))
	for _, nosimd := range []bool{false, true} {
		if nosimd {
			t.Setenv("SOMRM_NOSIMD", "1")
		}
		for _, format := range sweepKernelFormats {
			for _, workers := range []int{0, 1, 2, 5} {
				for _, tblock := range []int{1, 2, 4, 8} {
					opts := &core.Options{SweepWorkers: workers, MatrixFormat: format, TemporalBlock: tblock, SweepTile: 8}
					label := fmt.Sprintf("%s format %s nosimd %v workers %d tblock %d", name, format, nosimd, workers, tblock)
					fused, err := model.AccumulatedRewardAt(times, order, opts)
					if err != nil {
						t.Fatalf("%s: fused: %v", label, err)
					}
					requireBitwise(t, label, times, order, fused, ref)
				}
			}
		}
	}
}

// TestDiffSweepKernelBitwise is the fused-kernel gate: across the fixed
// seed corpus, at an order drawn from {0..5, 12} per seed, the fused
// persistent-worker sweep (automatic, single- and multi-worker, at every
// matrix storage format, temporal blocking depth, and SIMD dispatch) must
// reproduce the serial reference sweep bit for bit — moments and
// per-state vectors alike. The fused kernel, the
// band/compact storage engine, the split-tiled temporal blocking, and the
// AVX2 kernels are optimizations, never approximations.
func TestDiffSweepKernelBitwise(t *testing.T) {
	for seed := 0; seed < corpusSize; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sp := Generate(rng)
		model, err := sp.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		order := []int{0, 1, 2, 3, 4, 5, 12}[rng.Intn(7)]
		checkSweepKernelBitwise(t, fmt.Sprintf("seed %d order %d", seed, order), model, []float64{0, 0.3, 1.7, 4.2}, order)
	}
}

// TestDiffBirthDeathSweepBitwise runs the fused-kernel gate over the
// birth–death corpus (GenerateBirthDeath): tridiagonal, bidiagonal and
// 2-state chains, with and without impulses, at orders 3 and 12 (the
// row-lane band kernel and its AVX2 body, or the interleaved CSR32 kernel
// for the impulse seeds). A forced "band" must resolve to the band window
// exactly on the impulse-free seeds — the shapes Generate's ring corpus
// never reaches — and every seed must match the serial reference bit for
// bit in every configuration.
func TestDiffBirthDeathSweepBitwise(t *testing.T) {
	seeds := corpusSize / 2
	if !testing.Short() {
		seeds = corpusSize
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sp := GenerateBirthDeath(rng)
		model, err := sp.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		order := []int{3, 12}[seed%2]
		times := []float64{0, 0.3, 1.7}
		band, err := model.AccumulatedRewardAt(times, order, &core.Options{MatrixFormat: "band"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := band[1].Stats.MatrixFormat; (got == "band") != (len(sp.Impulses) == 0) {
			t.Fatalf("seed %d (%d states, %d impulses): forced band resolved to %q", seed, sp.States, len(sp.Impulses), got)
		}
		checkSweepKernelBitwise(t, fmt.Sprintf("birth-death seed %d (%d states, %d impulses, order %d)", seed, sp.States, len(sp.Impulses), order), model, times, order)
	}
}

// table1Model builds the paper's N = 32 ON–OFF multiplexer (33 states,
// Table 1 parameters, σ² = 10), optionally with an impulse reward of 0.5
// on every source turning ON (the i -> i+1 transitions).
func table1Model(t *testing.T, impulses bool) *core.Model {
	t.Helper()
	m, err := models.OnOff(models.PaperSmall(10))
	if err != nil {
		t.Fatal(err)
	}
	if !impulses {
		return m
	}
	b := sparse.NewBuilder(m.N(), m.N())
	for i := 0; i+1 < m.N(); i++ {
		if err := b.Add(i, i+1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	m, err = m.WithImpulses(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDiffSmallModelAutoBitwise gates the production sweep on the small
// shapes the corpus does not draw: the paper's Table 1 model at order 12
// (the row-lane band kernel, the shape a bounds request solves) and with
// impulse rewards at order 4 (the interleaved CSR32 kernel, two
// four-moment groups). Under automatic worker selection both run the
// inline 1-worker fused kernel and must agree bit for bit with the
// serial reference sweep.
func TestDiffSmallModelAutoBitwise(t *testing.T) {
	times := []float64{0, 0.5, 2}
	for _, c := range []struct {
		name     string
		impulses bool
		order    int
		format   sparse.MatrixFormat
	}{
		{"table1-order12", false, 12, sparse.FormatBand},
		{"table1-impulse-order4", true, 4, sparse.FormatCSR32},
	} {
		model := table1Model(t, c.impulses)
		ref, err := model.AccumulatedRewardAt(times, c.order, &core.Options{SweepWorkers: -1})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		auto, err := model.AccumulatedRewardAt(times, c.order, &core.Options{})
		if err != nil {
			t.Fatalf("%s: auto: %v", c.name, err)
		}
		if got := auto[1].Stats.MatrixFormat; got != string(c.format) {
			t.Fatalf("%s: auto solve streamed %q, want %q", c.name, got, c.format)
		}
		requireBitwise(t, c.name, times, c.order, auto, ref)
	}
}

// TestDiffCheckpointResumeAutoReference pins checkpoint interchange
// between the production sweep and the test oracle at small N: a
// checkpoint captured by the serial reference sweep (planar state vectors)
// must resume under automatic selection (the fused kernel on its packed
// state) to the bitwise-identical result, and the reverse must hold too.
func TestDiffCheckpointResumeAutoReference(t *testing.T) {
	times := []float64{0, 0.4, 1.3}
	ref := core.Options{SweepWorkers: -1}
	auto := core.Options{}
	check := func(label string, model *core.Model, order int) {
		t.Helper()
		if err := CheckResumeAcross(model, times, order, ref, auto); err != nil {
			t.Fatalf("%s reference capture/auto resume: %v", label, err)
		}
		if err := CheckResumeAcross(model, times, order, auto, ref); err != nil {
			t.Fatalf("%s auto capture/reference resume: %v", label, err)
		}
	}
	check("table1 order 3", table1Model(t, false), 3)
	check("table1 impulse order 4", table1Model(t, true), 4)
	for seed := 0; seed < 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sp := Generate(rng)
		model, err := sp.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d", seed), model, 1+rng.Intn(4))
	}
}

// TestDiffComposedCorpus is the composition half of the differential
// harness: every seed draws 2–4 independent components, composes them,
// and checks the composed solve (moment convolution) against the sweep
// over the materialized product chain, within both error bounds.
func TestDiffComposedCorpus(t *testing.T) {
	n := corpusSize / 2
	if !testing.Short() {
		n = corpusSize
	}
	for seed := 0; seed < n; seed++ {
		if err := CheckComposedSeed(int64(seed)); err != nil {
			t.Error(err)
		}
	}
}

// TestDiffComposedScalarFold: on the composed corpus, the moments a
// product-initial composed solve folds from its factors' scalar moments
// agree within roundRelTol with the per-state fold (StateMoments)
// aggregated under the product distribution, the aggregation the solver
// used before it folded scalars.
func TestDiffComposedScalarFold(t *testing.T) {
	for seed := 0; seed < corpusSize/2; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		_, joint, err := BuildComposed(GenerateComposed(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := 1 + rng.Intn(4)
		times := []float64{0, 0.3, 1.1}
		res, err := joint.AccumulatedRewardAt(times, order, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pi := joint.Initial()
		for k, r := range res {
			vm := r.StateMoments()
			for j, m := range r.Moments {
				var agg float64
				for i, p := range pi {
					agg += p * vm[j][i]
				}
				if err := agree(m, agg, roundRelTol); err != nil {
					t.Errorf("seed %d t=%g moment %d: scalar fold vs per-state fold: %v", seed, times[k], j, err)
				}
			}
		}
	}
}

// TestComposeErrorBoundMeetsEpsilon: composed solves report a propagated
// ErrorBound within the request's ε — across the composed corpus, under
// the product initial distribution and under one set by WithInitial, and
// at the composed-kron serving shape (three 41-state ON–OFF sources,
// 68,921 product states) — at a drawn low order and at order 12, for t
// up to 10.
func TestComposeErrorBoundMeetsEpsilon(t *testing.T) {
	check := func(label string, m *core.Model, times []float64, orders ...int) {
		t.Helper()
		for _, order := range orders {
			for _, eps := range []float64{1e-6, 1e-9, 1e-13} {
				res, err := m.AccumulatedRewardAt(times, order, &core.Options{Epsilon: eps})
				if err != nil {
					t.Fatalf("%s order %d ε=%g: %v", label, order, eps, err)
				}
				for _, r := range res {
					if r.Stats.ErrorBound > eps {
						t.Errorf("%s order %d ε=%g t=%g: ErrorBound %g exceeds ε", label, order, eps, r.T, r.Stats.ErrorBound)
					}
				}
			}
		}
	}
	for seed := 0; seed < corpusSize/2; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		_, joint, err := BuildComposed(GenerateComposed(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := 1 + rng.Intn(4)
		times := []float64{0, 0.3, 1.1, 10}
		check(fmt.Sprintf("seed %d", seed), joint, times, order, 12)
		pi := make([]float64, joint.N())
		pi[0], pi[joint.N()-1] = 0.5, 0.5
		mixed, err := joint.WithInitial(pi)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("seed %d non-product initial", seed), mixed, times, order, 12)
	}
	sources := make([]*core.Model, 3)
	for i, s2 := range []float64{0, 1, 10} {
		m, err := models.OnOff(models.OnOffParams{C: 40, N: 40, Alpha: 4, Beta: 3, R: 1, Sigma2: s2})
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = m
	}
	joint, err := core.ComposeAll(sources...)
	if err != nil {
		t.Fatal(err)
	}
	check("3x41", joint, []float64{0.03, 0.05, 0.5, 2, 10}, 3, 12)
}

// TestDiffComposedSweepBitwise extends the fused-kernel gate to the
// product chains of composed models (block-structured generators the
// random corpus rarely draws): for seeded compositions, every matrix
// format — including the forced block-tridiagonal window — at every
// worker count must sweep the materialized product bit for bit like the
// serial reference.
func TestDiffComposedSweepBitwise(t *testing.T) {
	seeds := 8
	if !testing.Short() {
		seeds = 16
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		_, joint, err := BuildComposed(GenerateComposed(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		product, err := ProductModel(joint)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := 1 + rng.Intn(3)
		times := []float64{0, 0.3, 1.1}
		ref, err := product.AccumulatedRewardAt(times, order, &core.Options{SweepWorkers: -1})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, format := range sweepKernelFormats {
			for _, workers := range []int{0, 1, 2, 5} {
				label := fmt.Sprintf("seed %d format %s workers %d", seed, format, workers)
				got, err := product.AccumulatedRewardAt(times, order, &core.Options{SweepWorkers: workers, MatrixFormat: format})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireBitwise(t, label, times, order, got, ref)
			}
		}
	}
}

// TestDiffComposedMatrixFree pins the matrix-free path inside the
// differential harness: a 257×257 composition of constant-rate chains,
// too large to materialize, must match the closed-form normal moments of
// its reward (each factor's reward is Normal(r·t, σ²·t) whatever its
// chain does), and its solves must agree bit for bit across worker
// counts and the serial reference.
func TestDiffComposedMatrixFree(t *testing.T) {
	mk := func(n int, r, s2 float64) *spec.Model {
		sp := &spec.Model{
			States:    n,
			Rates:     make([]float64, n),
			Variances: make([]float64, n),
			Initial:   make([]float64, n),
		}
		for i := 0; i < n; i++ {
			sp.Rates[i] = r
			sp.Variances[i] = s2
			if i < n-1 {
				sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: i + 1, Rate: 1 + 0.1*float64(i%7)})
				sp.Transitions = append(sp.Transitions, spec.Transition{From: i + 1, To: i, Rate: 1.5})
			}
		}
		sp.Initial[n/3] = 1
		return sp
	}
	_, joint, err := BuildComposed([]*spec.Model{mk(257, 0.7, 0.3), mk(257, -1.2, 1.1)})
	if err != nil {
		t.Fatal(err)
	}
	if !joint.IsMatrixFree() {
		t.Fatalf("%d states should be above the materialization threshold", joint.N())
	}
	times := []float64{0.4, 1.5}
	const order = 4
	ref, err := joint.AccumulatedRewardAt(times, order, &core.Options{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k, tt := range times {
		for j := 0; j <= order; j++ {
			exact, err := brownian.NormalRawMoment(j, (0.7-1.2)*tt, (0.3+1.1)*tt)
			if err != nil {
				t.Fatal(err)
			}
			if err := within(ref[k].Moments[j], exact, ref[k].Stats.ErrorBound); err != nil {
				t.Errorf("t=%g moment %d: composed vs closed form: %v", tt, j, err)
			}
		}
	}
	for _, workers := range []int{0, 1, 3} {
		got, err := joint.AccumulatedRewardAt(times, order, &core.Options{SweepWorkers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		requireBitwise(t, fmt.Sprintf("workers %d", workers), times, order, got, ref)
	}
}

// TestDiffComposedInitialDistribution: a composed model whose initial
// distribution is not a product of the components' (set through
// WithInitial) must still match the product sweep within both bounds,
// because the convolution rebuilds every per-state moment before the
// distribution aggregates them.
func TestDiffComposedInitialDistribution(t *testing.T) {
	seeds := 8
	if !testing.Short() {
		seeds = 16
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		_, joint, err := BuildComposed(GenerateComposed(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pi := make([]float64, joint.N())
		var sum float64
		for i := range pi {
			if rng.Intn(3) == 0 {
				pi[i] = rng.Float64()
				sum += pi[i]
			}
		}
		if sum == 0 {
			pi[0], sum = 1, 1
		}
		for i := range pi {
			pi[i] /= sum
		}
		mixed, err := joint.WithInitial(pi)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := 1 + rng.Intn(3)
		if err := CheckProductSweep(mixed, []float64{0, 0.3, 1.1}, order); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDiffCheckpointResumeBitwise is the durability half of the bitwise
// harness: across seeded corpus models, every storage format × worker
// count (including the serial reference) must survive an interrupt at a
// spread of iteration barriers — checkpoint serialized, re-decoded,
// resumed — with moments bitwise identical to the uninterrupted solve.
func TestDiffCheckpointResumeBitwise(t *testing.T) {
	seeds := 4
	if !testing.Short() {
		seeds = 8
	}
	times := []float64{0, 0.4, 1.3}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sp := Generate(rng)
		order := 1 + rng.Intn(4)
		for _, format := range []string{"auto", "csr", "band"} {
			for _, workers := range []int{-1, 1, 3} {
				opts := core.Options{SweepWorkers: workers, MatrixFormat: format}
				if workers < 0 && format != "auto" {
					continue // the reference sweep ignores the format knob
				}
				if err := CheckResume(sp, times, order, opts); err != nil {
					t.Fatalf("seed %d format %s workers %d: %v", seed, format, workers, err)
				}
			}
		}
	}
}

// TestDiffCheckpointResumeBlocked extends the resume gate to split-tiled
// temporal blocking: blocked solves must survive interrupts at their
// group-boundary barriers, and checkpoint tokens must be interchangeable
// across blocking modes — a token captured by an unblocked solve resumes
// under a blocked one and vice versa, bitwise identical either way,
// because blocking is absent from the checkpoint contract entirely.
func TestDiffCheckpointResumeBlocked(t *testing.T) {
	seeds := 3
	if !testing.Short() {
		seeds = 6
	}
	times := []float64{0, 0.4, 1.3}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sp := Generate(rng)
		order := 1 + rng.Intn(4)
		model, err := sp.Build()
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		for _, format := range []string{"auto", "band"} {
			for _, workers := range []int{1, 3} {
				plain := core.Options{SweepWorkers: workers, MatrixFormat: format}
				blocked := plain
				blocked.TemporalBlock = 4
				blocked.SweepTile = 8
				if err := CheckResumeAcross(model, times, order, blocked, blocked); err != nil {
					t.Fatalf("seed %d format %s workers %d blocked/blocked: %v", seed, format, workers, err)
				}
				if err := CheckResumeAcross(model, times, order, blocked, plain); err != nil {
					t.Fatalf("seed %d format %s workers %d blocked capture/unblocked resume: %v", seed, format, workers, err)
				}
				if err := CheckResumeAcross(model, times, order, plain, blocked); err != nil {
					t.Fatalf("seed %d format %s workers %d unblocked capture/blocked resume: %v", seed, format, workers, err)
				}
			}
		}
	}
}
