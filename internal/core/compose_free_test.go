package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"somrm/internal/ctmc"
	"somrm/internal/sparse"
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

// convolveMoments returns the binomial convolution of two raw moment
// sequences — the exact oracle for the moments of a sum of independent
// rewards.
func convolveMoments(a, b []float64) []float64 {
	order := len(a) - 1
	out := make([]float64, order+1)
	for n := 0; n <= order; n++ {
		for k := 0; k <= n; k++ {
			out[n] += binomCoef(n, k) * a[k] * b[n-k]
		}
	}
	return out
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

// TestComposeMatrixFreeLarge is the acceptance gate for the matrix-free
// path: a composed model of 10^6 product states solves through the
// Kronecker-sum operator without materializing the product generator, the
// operator's memory stays O(sum of factor sizes), and the moments match
// the binomial-convolution oracle of the component solves.
func TestComposeMatrixFreeLarge(t *testing.T) {
	const nf = 100
	a := birthDeathModel(t, nf)
	b := birthDeathModel(t, nf)
	c := birthDeathModel(t, nf)
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

	// The operator the solver will stream: its footprint is bounded by the
	// factor sizes, six orders of magnitude below the materialized product
	// (~10^6 rows x ~7 entries x 16 bytes ~ 100 MB).
	u, err := joint.uniformize(joint.maxExitRate())
	if err != nil {
		t.Fatal(err)
	}
	if u.kron == nil {
		t.Fatal("uniformization of a matrix-free model must build the Kronecker operator")
	}
	var factorBytes int64
	for _, f := range joint.kron.factors {
		factorBytes += int64(f.NNZ()+f.Rows()) * 16
	}
	if mem := u.kron.MemoryBytes(); mem > 8*factorBytes {
		t.Fatalf("KronSum memory %d bytes exceeds O(sum of factors) bound %d", mem, 8*factorBytes)
	}
	if mem := u.kron.MemoryBytes(); mem > 1<<20 {
		t.Fatalf("KronSum memory %d bytes for three 100-state factors; expected well under 1 MiB", mem)
	}

	const tt, order = 0.2, 2
	rj, err := joint.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Stats.MatrixFormat != string(sparse.FormatKron) {
		t.Errorf("Stats.MatrixFormat = %q, want %q", rj.Stats.MatrixFormat, sparse.FormatKron)
	}

	ra, err := a.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := convolveMoments(convolveMoments(ra.Moments, rb.Moments), rc.Moments)
	for n := 0; n <= order; n++ {
		if math.Abs(rj.Moments[n]-want[n]) > 1e-8*(1+math.Abs(want[n])) {
			t.Errorf("matrix-free m%d = %.12g, convolution oracle %.12g", n, rj.Moments[n], want[n])
		}
	}

	// The prepared path reuses the operator and must agree bitwise.
	prep, err := Prepare(joint)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prep.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= order; n++ {
		if math.Float64bits(rp.Moments[n]) != math.Float64bits(rj.Moments[n]) {
			t.Errorf("prepared m%d = %x, model path %x", n, math.Float64bits(rp.Moments[n]), math.Float64bits(rj.Moments[n]))
		}
	}
}

// TestComposeKronFormatBitwise is the composed-model half of the bitwise
// gate: a materialized composed model solved through the forced "kron"
// format — at every worker count, including the serial reference — must
// reproduce the default materialized solve bit for bit.
func TestComposeKronFormatBitwise(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	gb, err := ctmc.NewGeneratorFromDense(3, []float64{
		-3, 2, 1,
		0.5, -0.5, 0,
		4, 0, -4,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := mustModel(t, gb, []float64{2, 0, 1}, []float64{0, 0.6, 0.2}, []float64{0.25, 0.5, 0.25})
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if joint.IsMatrixFree() {
		t.Fatal("a 6-state composition should materialize")
	}

	times := []float64{0.3, 0.7}
	const order = 3
	ref, err := joint.AccumulatedRewardAt(times, order, &Options{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ref[0].Stats.MatrixFormat != string(sparse.FormatCSR64) {
		t.Fatalf("reference format = %q, want csr64", ref[0].Stats.MatrixFormat)
	}

	for _, workers := range []int{-1, 1, 2, 5} {
		got, err := joint.AccumulatedRewardAt(times, order, &Options{
			SweepWorkers: workers, MatrixFormat: string(sparse.FormatKron),
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for idx := range times {
			if got[idx].Stats.MatrixFormat != string(sparse.FormatKron) {
				t.Fatalf("workers %d: format = %q, want kron", workers, got[idx].Stats.MatrixFormat)
			}
		}
		sameResults(t, fmt.Sprintf("workers %d", workers), got, ref)
	}
}

// TestComposeAllAssociativity pins the spec-level associativity of
// composition: (A∘B)∘C and A∘(B∘C) share the same state space, the same
// factor list, and the same generator sparsity structure with exactly
// equal off-diagonal rates. They are deliberately NOT bitwise identical:
// the diagonal entries, drifts and variances are floating-point sums
// folded in the shape of the composition tree ((qa+qb)+qc versus
// qa+(qb+qc)), which differ in the last ulp for generic rates. The fold
// programs record exactly that shape — each variant stays bitwise
// faithful to its own materialization, which TestComposeKronFormatBitwise
// checks through the forced kron format.
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

	// Both parenthesizations decompose into the same ordered factor list;
	// only the fold program (the tree shape) differs.
	if len(left.kron.factors) != 3 || len(right.kron.factors) != 3 {
		t.Fatalf("factor counts %d/%d, want 3", len(left.kron.factors), len(right.kron.factors))
	}
	for i := range left.kron.factors {
		if left.kron.factors[i] != right.kron.factors[i] {
			t.Errorf("factor %d differs between parenthesizations", i)
		}
	}
	wantLeft := []byte{sparse.KronFoldPush, sparse.KronFoldPush, sparse.KronFoldAdd, sparse.KronFoldPush, sparse.KronFoldAdd}
	wantRight := []byte{sparse.KronFoldPush, sparse.KronFoldPush, sparse.KronFoldPush, sparse.KronFoldAdd, sparse.KronFoldAdd}
	if string(left.kron.fold) != string(wantLeft) {
		t.Errorf("left fold = %v, want %v", left.kron.fold, wantLeft)
	}
	if string(right.kron.fold) != string(wantRight) {
		t.Errorf("right fold = %v, want %v", right.kron.fold, wantRight)
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
