package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"somrm/internal/ctmc"
	"somrm/internal/sparse"
)

// ErrComposeImpulse is returned (wrapped in ErrBadModel) when Compose is
// given an impulse-reward component: a joint transition never fires both
// components at once, but the bookkeeping of per-component impulses on
// the product chain is not implemented. It is a distinct sentinel so
// callers (the server, the facade) can classify the rejection as a bad
// request rather than an internal failure.
var ErrComposeImpulse = errors.New("core: composition of impulse-reward models is not supported")

// ComposeMaterializeThreshold is the product state count above which
// Compose stops materializing the joint generator as an explicit CSR and
// returns a matrix-free model instead (see Model.IsMatrixFree). Either
// way the composed model solves by convolving its factors' moments, so
// the threshold only bounds what the explicit product costs to keep for
// the solvers that need Generator() (ODE, simulation, joint moments).
const ComposeMaterializeThreshold = 1 << 16

// leaves returns the factors a composition of m contributes: its own
// parts when it is composed, else the model itself.
func (m *Model) leaves() []*Model {
	if m.parts != nil {
		return m.parts
	}
	return []*Model{m}
}

// Compose builds the joint model of two *independent* second-order Markov
// reward models whose rewards accumulate additively: the structure process
// is the product chain (generator = Kronecker sum Q1 (+) Q2), the drift
// and variance of a joint state are the sums of the component drifts and
// variances (independent Brownian motions add their first two cumulants),
// and the initial distribution is the product distribution. State (i, j)
// has index i*b.N() + j.
//
// The accumulated reward of the composed model is B1(t) + B2(t) with
// independent components, so its moments are the binomial convolution of
// the component moments, and that is how the randomization solver
// computes them: the composed model keeps its leaf factors (flattened, in
// composition order), each factor solves through its own Prepared, and
// the per-state moment vectors fold left to right,
//
//	V⁽ⁿ⁾(i,j) = Σₖ C(n,k) A⁽ᵏ⁾ᵢ B⁽ⁿ⁻ᵏ⁾ⱼ,
//
// before the initial distribution aggregates them (see Stats for how the
// factors' statistics combine). The paper's ON-OFF multiplexer is a
// composition of N independent single-source models (modulo the shared
// capacity offset).
//
// Products up to ComposeMaterializeThreshold states also build the
// explicit joint CSR, so solvers that need Generator() work; larger
// products are matrix-free (see Model.IsMatrixFree).
//
// Impulse-reward models are rejected with ErrComposeImpulse (wrapped in
// ErrBadModel).
func Compose(a, b *Model) (*Model, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("%w: nil component model", ErrBadModel)
	}
	if a.HasImpulses() || b.HasImpulses() {
		return nil, fmt.Errorf("%w: %w", ErrBadModel, ErrComposeImpulse)
	}
	na, nb := a.N(), b.N()
	if nb != 0 && na > math.MaxInt/nb {
		return nil, fmt.Errorf("%w: composed state space %d x %d overflows", ErrBadModel, na, nb)
	}
	n := na * nb
	idx := func(i, j int) int { return i*nb + j }
	parts := append(append(make([]*Model, 0, len(a.leaves())+len(b.leaves())), a.leaves()...), b.leaves()...)

	rates := make([]float64, n)
	vars := make([]float64, n)
	initial := make([]float64, n)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			k := idx(i, j)
			rates[k] = a.rates[i] + b.rates[j]
			vars[k] = a.vars[i] + b.vars[j]
			initial[k] = a.initial[i] * b.initial[j]
		}
	}

	if n <= ComposeMaterializeThreshold {
		// Small product: materialize the joint CSR. Components this small
		// always carry explicit generators (a matrix-free component is
		// itself above the threshold).
		builder := sparse.NewBuilder(n, n)
		qma := a.gen.Matrix()
		qmb := b.gen.Matrix()
		var addErr error
		add := func(r, c int, v float64) {
			if addErr == nil && v != 0 {
				addErr = builder.Add(r, c, v)
			}
		}
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				row := idx(i, j)
				// Component A moves: (i,j) -> (k,j) at rate qa[i][k].
				qma.Range(i, func(k int, v float64) {
					add(row, idx(k, j), v)
				})
				// Component B moves: (i,j) -> (i,l) at rate qb[j][l]. The two
				// diagonal contributions sum to the joint exit rate.
				qmb.Range(j, func(l int, v float64) {
					add(row, idx(i, l), v)
				})
			}
		}
		if addErr != nil {
			return nil, fmt.Errorf("core: compose: %w", addErr)
		}
		gen, err := ctmc.NewGenerator(builder.Build())
		if err != nil {
			return nil, fmt.Errorf("core: compose: %w", err)
		}
		out, err := New(gen, rates, vars, initial)
		if err != nil {
			return nil, err
		}
		out.parts = parts
		return out, nil
	}

	// Large product: matrix-free model. Validate what New would have
	// validated, without ever building O(n·nnz-per-row) storage.
	for i, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: composed rate r[%d]=%g", ErrBadModel, i, r)
		}
	}
	for i, s := range vars {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("%w: composed variance sigma2[%d]=%g", ErrBadModel, i, s)
		}
	}
	if err := validateDistribution(initial, n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return &Model{
		parts:   parts,
		rates:   rates,
		vars:    vars,
		initial: initial,
	}, nil
}

// validateDistribution checks that pi is a probability vector of length
// n, mirroring ctmc.Generator.ValidateDistribution for models without an
// explicit generator.
func validateDistribution(pi []float64, n int) error {
	if len(pi) != n {
		return fmt.Errorf("distribution length %d, want %d", len(pi), n)
	}
	var sum float64
	for i, p := range pi {
		if p < 0 || math.IsNaN(p) || p > 1+1e-12 {
			return fmt.Errorf("pi[%d]=%g", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("distribution sums to %g", sum)
	}
	return nil
}

// ComposeAll folds Compose over a list of independent models (at least
// one), left to right. State counts multiply; products beyond
// ComposeMaterializeThreshold states come back matrix-free.
func ComposeAll(models ...*Model) (*Model, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("%w: no models to compose", ErrBadModel)
	}
	out := models[0]
	if out == nil {
		return nil, fmt.Errorf("%w: nil component model", ErrBadModel)
	}
	for _, m := range models[1:] {
		var err error
		out, err = Compose(out, m)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// solveComposed solves a composed model by moment convolution: every
// factor solves at every time point through its own Prepared, with the
// caller's epsilon and sweep options, and the factors' per-state moments
// fold left to right in Compose's state layout. Callers have applied the
// option defaults.
func (p *Prepared) solveComposed(ctx context.Context, times []float64, order int, cfg Options) ([]*Result, error) {
	if err := validateSolveArgs(times, order, cfg); err != nil {
		return nil, err
	}
	// The product chain's rate is the sum of the factor rates.
	var q float64
	for _, part := range p.parts {
		q += part.m.gen.MaxExitRate()
	}
	if cfg.UniformizationRate != 0 && cfg.UniformizationRate < q {
		return nil, fmt.Errorf("%w: uniformization rate %g below max exit rate %g", ErrBadArgument, cfg.UniformizationRate, q)
	}
	if cfg.Resume != nil {
		return nil, fmt.Errorf("%w: composed models do not checkpoint", ErrCheckpoint)
	}
	// Factors uniformize at their own rates and never capture a
	// checkpoint: a cancelled solve returns the bare context error.
	partCfg := cfg
	partCfg.UniformizationRate, partCfg.Checkpoint = 0, false
	solved := make([][]*Result, len(p.parts))
	largest := 0
	for k, part := range p.parts {
		res, err := part.AccumulatedRewardAtContext(ctx, times, order, &partCfg)
		if err != nil {
			return nil, err
		}
		solved[k] = res
		if part.m.N() > p.parts[largest].m.N() {
			largest = k
		}
	}

	results := make([]*Result, len(times))
	for idx, t := range times {
		first := solved[0][idx]
		vm := first.VectorMoments
		bound := make([]float64, order+1)
		for n := range bound {
			bound[n] = first.Stats.ErrorBound
		}
		var st Stats
		for k := range p.parts {
			fs := solved[k][idx].Stats
			if k > 0 {
				vm, bound = convolveStates(vm, bound, solved[k][idx].VectorMoments, fs.ErrorBound, order)
			}
			st.Q += fs.Q
			st.Shift += fs.Shift
			st.D = math.Max(st.D, fs.D)
			st.G = max(st.G, fs.G)
			st.MatVecs += fs.MatVecs
			st.SweepNS += fs.SweepNS
			st.FlopsPerIteration += fs.FlopsPerIteration
		}
		st.QT = st.Q * t
		for _, e := range bound {
			st.ErrorBound = math.Max(st.ErrorBound, e)
		}
		big := solved[largest][idx].Stats
		st.MatrixFormat, st.SweepKernel, st.TemporalBlock = big.MatrixFormat, big.SweepKernel, big.TemporalBlock

		res := &Result{T: t, Order: order, VectorMoments: vm, Stats: st}
		res.finish(p.m.initial)
		for j, v := range res.Moments {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("%w: t=%g composed moment order %d", ErrOverflow, t, j)
			}
		}
		results[idx] = res
	}
	return results, nil
}

// convolveStates returns the per-state moments of B_a + B_b for
// independent B_a, B_b over the product states i·n_b + j,
//
//	V⁽ⁿ⁾(i,j) = Σₖ C(n,k) A⁽ᵏ⁾ᵢ B⁽ⁿ⁻ᵏ⁾ⱼ,
//
// and their propagated per-order error bound. ea[n] bounds the absolute
// error of every A⁽ⁿ⁾ entry and eb that of every B⁽ⁿ⁾ entry, so by
// |Δ(ab)| ≤ |Δa||b| + |a||Δb| + |Δa||Δb|
//
//	e⁽ⁿ⁾ = Σₖ C(n,k)(ea[k]·|B⁽ⁿ⁻ᵏ⁾| + |A⁽ᵏ⁾|·eb + ea[k]·eb),
//
// where |·| is the maximum over states.
func convolveStates(a [][]float64, ea []float64, b [][]float64, eb float64, order int) ([][]float64, []float64) {
	na, nb := len(a[0]), len(b[0])
	maxA, maxB := make([]float64, order+1), make([]float64, order+1)
	for n := 0; n <= order; n++ {
		maxA[n], maxB[n] = maxAbs(a[n]), maxAbs(b[n])
	}
	out := make([][]float64, order+1)
	bound := make([]float64, order+1)
	for n := 0; n <= order; n++ {
		vn := make([]float64, na*nb)
		for k := 0; k <= n; k++ {
			c := binomCoef(n, k)
			ak, bk := a[k], b[n-k]
			for i, x := range ak {
				ci := c * x
				row := vn[i*nb : (i+1)*nb]
				for j, y := range bk {
					row[j] += ci * y
				}
			}
			bound[n] += c * (ea[k]*maxB[n-k] + maxA[k]*eb + ea[k]*eb)
		}
		out[n] = vn
	}
	return out, bound
}

// maxAbs returns max_i |v_i| (0 for an empty slice).
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
