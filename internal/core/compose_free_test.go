package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"somrm/internal/brownian"
	"somrm/internal/ctmc"
)

// birthDeathModel builds an n-state birth-death reward model with unit
// up/down rates, drift proportional to the level, and a small per-level
// variance — a cheap factor for composition tests.
func birthDeathModel(t *testing.T, n int) *Model {
	t.Helper()
	up := make([]float64, n-1)
	down := make([]float64, n-1)
	for i := range up {
		up[i] = 1
		down[i] = 1
	}
	gen, err := ctmc.NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, n)
	vars := make([]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = 0.05 * float64(i)
		vars[i] = 0.01 * float64(i)
	}
	pi, err := ctmc.UnitDistribution(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mustModel(t, gen, rates, vars, pi)
}

func TestComposeImpulseSentinel(t *testing.T) {
	m := mustModel(t, cyclic2(t, 1, 1), []float64{1, 2}, []float64{0, 0}, []float64{1, 0})
	mi, err := m.WithImpulses(impulseMatrix(t, 2, [3]float64{0, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*Model{
		"left": {mi, m}, "right": {m, mi},
	} {
		_, err := Compose(pair[0], pair[1])
		if !errors.Is(err, ErrComposeImpulse) {
			t.Errorf("%s impulse component: err = %v, want ErrComposeImpulse", name, err)
		}
		if !errors.Is(err, ErrBadModel) {
			t.Errorf("%s impulse component: err = %v, want ErrBadModel wrapper", name, err)
		}
	}
}

// TestComposeAllAssociativity pins the spec-level associativity of
// composition: (A∘B)∘C and A∘(B∘C) share the same state space, the same
// flattened factor list, and the same generator sparsity structure with
// exactly equal off-diagonal rates. The product arrays are deliberately
// NOT bitwise identical: the diagonal entries, drifts and variances are
// floating-point sums folded in the shape of the composition tree
// ((qa+qb)+qc versus qa+(qb+qc)), which differ in the last ulp for
// generic rates.
func TestComposeAllAssociativity(t *testing.T) {
	a := mustModel(t, cyclic2(t, 0.3, 1.7), []float64{0.1, 1.3}, []float64{0.2, 0}, []float64{1, 0})
	b := mustModel(t, cyclic2(t, 2.1, 0.9), []float64{0.7, 0.05}, []float64{0, 0.4}, []float64{0.5, 0.5})
	c := mustModel(t, cyclic2(t, 1.1, 1.9), []float64{0.23, 0.91}, []float64{0.11, 0.02}, []float64{0.25, 0.75})

	ab, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := Compose(ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Compose(b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Compose(a, bc)
	if err != nil {
		t.Fatal(err)
	}

	if left.N() != right.N() {
		t.Fatalf("N: %d != %d", left.N(), right.N())
	}
	n := left.N()

	// Both parenthesizations flatten into the same ordered factor list.
	for name, m := range map[string]*Model{"left": left, "right": right} {
		if len(m.parts) != 3 || m.parts[0] != a || m.parts[1] != b || m.parts[2] != c {
			t.Errorf("%s parts = %v, want [a b c]", name, m.parts)
		}
	}

	lg, rg := left.Generator().Matrix(), right.Generator().Matrix()
	if lg.NNZ() != rg.NNZ() {
		t.Fatalf("nnz: %d != %d", lg.NNZ(), rg.NNZ())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lv, rv := lg.At(i, j), rg.At(i, j)
			if i != j {
				// Off-diagonal product rates are single component rates —
				// no summation, so associativity is exact.
				if math.Float64bits(lv) != math.Float64bits(rv) {
					t.Fatalf("offdiag (%d,%d): %x != %x", i, j, math.Float64bits(lv), math.Float64bits(rv))
				}
				continue
			}
			if (lv == 0) != (rv == 0) {
				t.Fatalf("diag %d: structure differs (%g vs %g)", i, lv, rv)
			}
			if math.Abs(lv-rv) > 4e-16*math.Abs(lv) {
				t.Fatalf("diag %d: %g vs %g beyond ulp slack", i, lv, rv)
			}
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(left.rates[i]-right.rates[i]) > 4e-16*(1+math.Abs(left.rates[i])) {
			t.Fatalf("rates[%d]: %g vs %g", i, left.rates[i], right.rates[i])
		}
		if math.Abs(left.vars[i]-right.vars[i]) > 4e-16*(1+math.Abs(left.vars[i])) {
			t.Fatalf("vars[%d]: %g vs %g", i, left.vars[i], right.vars[i])
		}
	}

	// Both trees solve to the same distribution up to roundoff.
	rl, err := left.AccumulatedReward(0.5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := right.AccumulatedReward(0.5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j <= 3; j++ {
		if math.Abs(rl.Moments[j]-rr.Moments[j]) > 1e-12*(1+math.Abs(rl.Moments[j])) {
			t.Errorf("m%d: %.17g vs %.17g", j, rl.Moments[j], rr.Moments[j])
		}
	}
}

// TestMatrixFreeGuards pins which operations a matrix-free composed model
// supports: transient solves work, everything needing the explicit
// generator fails loudly instead of panicking.
func TestMatrixFreeGuards(t *testing.T) {
	// 257 x 257 = 66049 > 2^16: the smallest two-factor matrix-free model.
	a := birthDeathModel(t, 257)
	b := birthDeathModel(t, 257)
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !joint.IsMatrixFree() {
		t.Fatalf("%d-state composition should be matrix-free", joint.N())
	}

	if _, err := joint.WithImpulses(impulseMatrix(t, joint.N(), [3]float64{0, 1, 1})); !errors.Is(err, ErrBadModel) {
		t.Errorf("WithImpulses: %v, want ErrBadModel", err)
	}
	if _, err := joint.LongRun(); !errors.Is(err, ErrBadArgument) {
		t.Errorf("LongRun: %v, want ErrBadArgument", err)
	}
	if _, err := joint.SteadyStateMeanRate(); !errors.Is(err, ErrBadArgument) {
		t.Errorf("SteadyStateMeanRate: %v, want ErrBadArgument", err)
	}
	if _, err := joint.JointMoments(0.1, 1, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("JointMoments: %v, want ErrBadArgument", err)
	}

	// WithInitial re-validates through the generator-free path.
	pi := make([]float64, joint.N())
	pi[1] = 1
	swapped, err := joint.WithInitial(pi)
	if err != nil {
		t.Fatalf("WithInitial: %v", err)
	}
	if !swapped.IsMatrixFree() {
		t.Error("WithInitial must preserve matrix-freeness")
	}
	bad := make([]float64, joint.N())
	bad[0] = 2
	if _, err := joint.WithInitial(bad); !errors.Is(err, ErrBadModel) {
		t.Errorf("WithInitial(bad): %v, want ErrBadModel", err)
	}
}

// constantRateChain builds an n-state birth-death chain whose states all
// share drift r and variance s2: whatever the chain does, its reward is
// exactly Normal(r·t, s2·t), so compositions of such chains have
// closed-form moments.
func constantRateChain(t *testing.T, n int, r, s2 float64) *Model {
	t.Helper()
	up := make([]float64, n-1)
	down := make([]float64, n-1)
	for i := range up {
		up[i] = 1 + 0.5*float64(i%3)
		down[i] = 2
	}
	gen, err := ctmc.NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, n)
	vars := make([]float64, n)
	for i := range rates {
		rates[i] = r
		vars[i] = s2
	}
	pi, err := ctmc.UnitDistribution(n, n/2)
	if err != nil {
		t.Fatal(err)
	}
	return mustModel(t, gen, rates, vars, pi)
}

// productSweep returns the materialized product chain of a composed
// model as a plain model, which the randomization solver sweeps like any
// other: the independent oracle for the moment convolution.
func productSweep(t *testing.T, joint *Model) *Model {
	t.Helper()
	if joint.Generator() == nil {
		t.Fatal("composed model is matrix-free; no product to sweep")
	}
	return mustModel(t, joint.Generator(), joint.rates, joint.vars, joint.initial)
}

// requireWithinBounds checks that two solves agree within the sum of
// their propagated error bounds plus a roundoff allowance of 1e-12
// relative.
func requireWithinBounds(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	for idx := range want {
		tol := got[idx].Stats.ErrorBound + want[idx].Stats.ErrorBound
		for j, w := range want[idx].Moments {
			if d := math.Abs(got[idx].Moments[j] - w); d > tol+1e-12*math.Max(1, math.Abs(w)) {
				t.Errorf("%s: t=%g m%d = %.17g, product sweep %.17g (diff %g, bounds %g)",
					label, want[idx].T, j, got[idx].Moments[j], w, d, tol)
			}
		}
	}
}

// TestComposeMatrixFreeLarge is the acceptance gate for matrix-free
// compositions: a composed model of 10^6 product states solves without
// ever building the product generator, its moments match the closed form
// of a sum of normals, and the prepared and model paths agree bitwise.
func TestComposeMatrixFreeLarge(t *testing.T) {
	const nf = 100
	a := constantRateChain(t, nf, 0.5, 0.2)
	b := constantRateChain(t, nf, -0.3, 0)
	c := constantRateChain(t, nf, 1.1, 0.7)
	joint, err := ComposeAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := joint.N(), nf*nf*nf; got != want {
		t.Fatalf("joint.N() = %d, want %d", got, want)
	}
	if !joint.IsMatrixFree() {
		t.Fatal("composed model above the threshold should be matrix-free")
	}
	if joint.Generator() != nil {
		t.Fatal("matrix-free model must not carry an explicit generator")
	}

	const tt, order = 0.2, 3
	rj, err := joint.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Stats.MatrixFormat != ra.Stats.MatrixFormat || rj.Stats.MatrixFormat == "" {
		t.Errorf("Stats.MatrixFormat = %q, want the factors' %q", rj.Stats.MatrixFormat, ra.Stats.MatrixFormat)
	}
	mean, variance := (0.5-0.3+1.1)*tt, (0.2+0+0.7)*tt
	for n := 0; n <= order; n++ {
		want, err := brownian.NormalRawMoment(n, mean, variance)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(rj.Moments[n] - want); d > rj.Stats.ErrorBound+1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("m%d = %.17g, closed form %.17g (diff %g, bound %g)", n, rj.Moments[n], want, d, rj.Stats.ErrorBound)
		}
	}

	prep, err := Prepare(joint)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prep.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "prepared vs model path", []*Result{rp}, []*Result{rj})
}

// TestComposeMatchesProductSweep is the convolution's contract against
// the materialized product sweep: composed solves agree with it within
// both propagated bounds, at several time points, including t = 0 and
// factors with negative drifts (shifted).
func TestComposeMatchesProductSweep(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	gb, err := ctmc.NewGeneratorFromDense(3, []float64{
		-3, 2, 1,
		0.5, -0.5, 0,
		4, 0, -4,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := mustModel(t, gb, []float64{2, 0, -1}, []float64{0, 0.6, 0.2}, []float64{0.25, 0.5, 0.25})
	c := birthDeathModel(t, 5)
	joint, err := ComposeAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 0.3, 1.7}
	const order = 4
	got, err := joint.AccumulatedRewardAt(times, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := productSweep(t, joint).AccumulatedRewardAt(times, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireWithinBounds(t, "compose", got, want)
	for j, m := range got[0].Moments {
		if w := float64(1 - min(j, 1)); m != w {
			t.Errorf("t=0 m%d = %g, want %g", j, m, w)
		}
	}
}

// TestComposeWithInitialNonProduct: a composed model given an initial
// distribution that is not a product of the factors' still aggregates
// exactly, because the convolution rebuilds every per-state moment.
func TestComposeWithInitialNonProduct(t *testing.T) {
	a := mustModel(t, cyclic2(t, 0.3, 1.7), []float64{0.1, 1.3}, []float64{0.2, 0}, []float64{1, 0})
	b := birthDeathModel(t, 4)
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Mass on (0,3) and (1,0) only: a product distribution weighting
	// both would also weight (0,0) and (1,3).
	pi := make([]float64, joint.N())
	pi[3], pi[4] = 0.3, 0.7
	mixed, err := joint.WithInitial(pi)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.4, 1.2}
	got, err := mixed.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := productSweep(t, mixed).AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireWithinBounds(t, "non-product initial", got, want)
}

// TestComposeWithImpulsesSweepsProduct: impulses couple the factors, so
// a composed model with impulses is an ordinary model of its product
// chain, bit for bit.
func TestComposeWithImpulsesSweepsProduct(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	b := mustModel(t, cyclic2(t, 0.7, 1.1), []float64{2, 0}, []float64{0, 0.6}, []float64{0.25, 0.75})
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Product state 0 = (0,0) moves to 2 = (1,0) and to 1 = (0,1).
	imp := impulseMatrix(t, joint.N(), [3]float64{0, 2, 0.5}, [3]float64{0, 1, 0.25})
	ji, err := joint.WithImpulses(imp)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := productSweep(t, joint).WithImpulses(imp)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 1.5}
	got, err := ji.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "composed with impulses", got, want)
}

// TestComposeOptions pins how solver options apply to composed models:
// the uniformization rate is validated against the product chain's rate
// but does not change the factor solves, checkpoints are refused or not
// captured, and "kron" and "qbd" are no longer formats.
func TestComposeOptions(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	b := birthDeathModel(t, 6)
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 2}
	ref, err := joint.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := a.Generator().MaxExitRate() + b.Generator().MaxExitRate()
	if ref[1].Stats.Q != q || ref[1].Stats.QT != q*2 {
		t.Errorf("Stats.Q, QT = %g, %g, want %g, %g", ref[1].Stats.Q, ref[1].Stats.QT, q, q*2)
	}

	if _, err := joint.AccumulatedRewardAt(times, 3, &Options{UniformizationRate: q * 0.99}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("uniformization rate below the product rate: %v, want ErrBadArgument", err)
	}
	got, err := joint.AccumulatedRewardAt(times, 3, &Options{UniformizationRate: 2 * q})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "uniformization rate", got, ref)

	for _, f := range []string{"kron", "qbd"} {
		if _, err := joint.AccumulatedRewardAt(times, 3, &Options{MatrixFormat: f}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("MatrixFormat %q: %v, want ErrBadArgument", f, err)
		}
	}
	if _, err := joint.AccumulatedRewardAt(times, 3, &Options{Resume: &Checkpoint{}}); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("Resume: %v, want ErrCheckpoint", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prep, err := Prepare(joint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.AccumulatedRewardAtContext(ctx, times, 3, &Options{Checkpoint: true}); err != context.Canceled {
		t.Errorf("cancelled composed solve: %v, want the bare context error", err)
	}
}

// TestComposeStatsFold pins how the factors' statistics combine. At the
// default ε the fold's bound here exceeds ε, so the factors solve a
// second time at ε·ε/B (B: the fold's bound with every factor bound at
// ε): G comes from the second solves, MatVecs counts both.
func TestComposeStatsFold(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	b := birthDeathModel(t, 7)
	c := mustModel(t, cyclic2(t, 0.7, 1.1), []float64{-2, 0}, []float64{0, 0.6}, []float64{0.25, 0.75})
	joint, err := ComposeAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	const tt, order = 0.9, 3
	got, err := joint.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	final, first := factorSolves(t, []*Model{a, b, c}, tt, order, DefaultEpsilon)
	if first == nil {
		t.Fatal("the first fold's bound is within ε: the test no longer reaches the second solve")
	}
	var want Stats
	for k, r := range final {
		fs := r.Stats
		want.Q += fs.Q
		want.Shift += fs.Shift
		want.D = math.Max(want.D, fs.D)
		want.G = max(want.G, fs.G)
		want.MatVecs += fs.MatVecs + first[k].Stats.MatVecs
		want.FlopsPerIteration += fs.FlopsPerIteration
		if k == 1 {
			want.MatrixFormat, want.SweepKernel, want.TemporalBlock = fs.MatrixFormat, fs.SweepKernel, fs.TemporalBlock
		}
	}
	want.QT = want.Q * tt
	if got.Stats.ErrorBound <= 0 || got.Stats.ErrorBound > DefaultEpsilon || got.Stats.SweepNS <= 0 {
		t.Errorf("ErrorBound %g, SweepNS %d: want a bound in (0, ε] and positive sweep time", got.Stats.ErrorBound, got.Stats.SweepNS)
	}
	got.Stats.SweepNS, got.Stats.ErrorBound = 0, 0
	if got.Stats != want {
		t.Errorf("Stats = %+v, want %+v", got.Stats, want)
	}
}
