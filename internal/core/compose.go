package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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

// ComposeMaterializeEntries caps the stored entries of a materialized
// product generator, Σₖ nnzₖ·n/nₖ over the factors (n product states, nₖ
// and nnzₖ the states and entries of factor k), which Compose knows
// before it builds anything: a product of few states but dense factors
// (two dense 256-state factors make 3.4·10⁷ entries) stays matrix-free.
const ComposeMaterializeEntries = 16 * ComposeMaterializeThreshold

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
// under the product initial distribution the factors' scalar moments
// fold left to right,
//
//	E[(A+B)ⁿ] = Σₖ C(n,k) E[Aᵏ] E[Bⁿ⁻ᵏ],
//
// in O(factors · order²) per time point (see Stats for how the factors'
// statistics combine). A distribution set by WithInitial need not be a
// product, so such a model folds the per-state moment vectors instead,
// V⁽ⁿ⁾(i,j) = Σₖ C(n,k) A⁽ᵏ⁾ᵢ B⁽ⁿ⁻ᵏ⁾ⱼ over every product state, before
// the distribution aggregates them; Result.StateMoments builds the same
// vectors on demand for a product-initial result. The paper's ON-OFF
// multiplexer is a composition of N independent single-source models
// (modulo the shared capacity offset).
//
// Products up to ComposeMaterializeThreshold states and
// ComposeMaterializeEntries generator entries also build the explicit
// joint CSR and product-length drift, variance and initial arrays, so
// solvers that need Generator() work; larger products are matrix-free
// (see Model.IsMatrixFree) and store none of them.
//
// Impulse-reward models are rejected with ErrComposeImpulse (wrapped in
// ErrBadModel).
func Compose(a, b *Model) (*Model, error) {
	return compose([]*Model{a, b})
}

// ComposeAll composes a list of independent models (at least one) as a
// left fold of Compose would, in one step: state counts multiply, and
// only the final product is materialized (at most
// ComposeMaterializeThreshold states and ComposeMaterializeEntries
// entries) or left matrix-free.
func ComposeAll(models ...*Model) (*Model, error) {
	switch {
	case len(models) == 0:
		return nil, fmt.Errorf("%w: no models to compose", ErrBadModel)
	case len(models) == 1 && models[0] == nil:
		return nil, fmt.Errorf("%w: nil component model", ErrBadModel)
	case len(models) == 1:
		return models[0], nil
	}
	return compose(models)
}

// compose builds the product of two or more models over their flattened
// leaves. The initial distribution is the product of the leaves' unless
// some model's was set by WithInitial; then it is the product of the
// models' own distributions, stored explicitly.
func compose(models []*Model) (*Model, error) {
	var parts []*Model
	n, product := 1, true
	for _, m := range models {
		if m == nil {
			return nil, fmt.Errorf("%w: nil component model", ErrBadModel)
		}
		if m.HasImpulses() {
			return nil, fmt.Errorf("%w: %w", ErrBadModel, ErrComposeImpulse)
		}
		k := m.N()
		if k != 0 && n > math.MaxInt/k {
			return nil, fmt.Errorf("%w: composed state space %d x %d overflows", ErrBadModel, n, k)
		}
		n *= k
		parts = append(parts, m.leaves()...)
		product = product && (m.parts == nil || m.productInitial)
	}
	var initial []float64
	if !product {
		initial = productVector(models, (*Model).Initial, mul)
	}

	if n > ComposeMaterializeThreshold || productEntries(parts, n) > ComposeMaterializeEntries {
		// Matrix-free: validate what New would have validated of the
		// product arrays, without building them.
		if err := validateProduct(parts); err != nil {
			return nil, err
		}
		if initial != nil {
			if err := validateDistribution(initial, n); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
			}
		}
		return &Model{parts: parts, initial: initial, productInitial: product}, nil
	}

	// Small product: materialize the joint CSR, the Kronecker sum of the
	// leaves' generators. Leaves always carry explicit generators. Leaf k
	// moves state (…, i, …) to (…, l, …) at rate q_k[i][l]; the leaves'
	// diagonal contributions, added in leaf order, sum to the joint exit
	// rate as a left fold of Compose would.
	builder := sparse.NewBuilder(n, n)
	var addErr error
	stride := n
	for _, part := range parts {
		np := part.N()
		stride /= np
		q := part.gen.Matrix()
		for row := 0; row < n; row++ {
			i := row / stride % np
			base := row - i*stride
			q.Range(i, func(l int, v float64) {
				if addErr == nil && v != 0 {
					addErr = builder.Add(row, base+l*stride, v)
				}
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
	if initial == nil {
		initial = productVector(parts, (*Model).Initial, mul)
	}
	out, err := New(gen, productVector(parts, (*Model).Rates, add), productVector(parts, (*Model).Variances, add), initial)
	if err != nil {
		return nil, err
	}
	out.parts, out.productInitial = parts, product
	return out, nil
}

// productEntries returns Σₖ nnzₖ·n/nₖ, the entries the Kronecker sum of
// parts stores at most (the factors' diagonals share the product's), for
// a product of n ≤ ComposeMaterializeThreshold states.
func productEntries(parts []*Model, n int) int {
	var entries int
	for _, part := range parts {
		entries += part.gen.Matrix().NNZ() * (n / part.N())
	}
	return entries
}

func add(x, y float64) float64 { return x + y }
func mul(x, y float64) float64 { return x * y }

// productVector folds a per-model vector over the product states of
// models, left to right in Compose's state layout:
// out[i·n_b + j] = op(a[i], b[j]).
func productVector(models []*Model, vec func(*Model) []float64, op func(x, y float64) float64) []float64 {
	out := vec(models[0])
	for _, m := range models[1:] {
		b := vec(m)
		next := make([]float64, len(out)*len(b))
		for i, x := range out {
			row := next[i*len(b) : (i+1)*len(b)]
			for j, y := range b {
				row[j] = op(x, y)
			}
		}
		out = next
	}
	return out
}

// validateProduct checks the drifts and variances of a matrix-free
// composition of leaves without building them: every product drift lies
// between the sums of the leaves' smallest and largest drifts, and every
// variance below the sum of their largest, so all are finite when those
// sums are (the leaves' own values are validated by New).
func validateProduct(parts []*Model) error {
	var lo, hi, vmax float64
	for _, part := range parts {
		lo += slices.Min(part.rates)
		hi += slices.Max(part.rates)
		vmax += slices.Max(part.vars)
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return fmt.Errorf("%w: composed rates overflow (range [%g, %g])", ErrBadModel, lo, hi)
	}
	if math.IsInf(vmax, 0) {
		return fmt.Errorf("%w: composed variances overflow (largest %g)", ErrBadModel, vmax)
	}
	return nil
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

// solveComposed solves a composed model by moment convolution: every
// factor solves at every time point through its own Prepared, with the
// caller's sweep options, and the factors' moments fold left to right
// (see Compose). Callers have applied the option defaults and checked
// the arguments.
//
// The fold's error bound can exceed the factors' ε, so the factors solve
// once, at the ε factorEpsilon fixes before any sweep runs.
func (p *Prepared) solveComposed(ctx context.Context, times []float64, order int, cfg Options) ([]*Result, error) {
	// The product chain's rate is the sum of the factor rates.
	var q float64
	largest := 0
	for k, part := range p.parts {
		q += part.m.gen.MaxExitRate()
		if part.m.N() > p.parts[largest].m.N() {
			largest = k
		}
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
	eps, err := factorEpsilon(p.m.parts, slices.Max(times), order, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	partCfg.Epsilon = eps
	solved := make([][]*Result, len(p.parts))
	for k, part := range p.parts {
		res, err := part.AccumulatedRewardAtContext(ctx, times, order, &partCfg)
		if err != nil {
			return nil, err
		}
		solved[k] = res
	}
	results := make([]*Result, len(times))
	for idx, t := range times {
		factors := make([]*Result, len(p.parts))
		var st Stats
		for k := range p.parts {
			factors[k] = solved[k][idx]
			fs := factors[k].Stats
			st.Q += fs.Q
			st.Shift += fs.Shift
			st.D = math.Max(st.D, fs.D)
			st.G = max(st.G, fs.G)
			st.MatVecs += fs.MatVecs
			st.SweepNS += fs.SweepNS
			st.FlopsPerIteration += fs.FlopsPerIteration
		}
		st.QT = st.Q * t
		big := factors[largest].Stats
		st.MatrixFormat, st.SweepKernel, st.TemporalBlock = big.MatrixFormat, big.SweepKernel, big.TemporalBlock

		res := &Result{T: t, Order: order, Stats: st}
		var bound []float64
		if p.m.productInitial {
			res.Moments, bound = foldMoments(factors)
			res.states = sync.OnceValue(func() [][]float64 {
				vm := factors[0].VectorMoments
				for _, f := range factors[1:] {
					vm = convolveStates(vm, f.VectorMoments)
				}
				return vm
			})
		} else {
			res.VectorMoments, bound = foldStates(factors)
			res.finish(p.m.initial)
		}
		for j, v := range res.Moments {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("%w: t=%g composed moment order %d", ErrOverflow, t, j)
			}
			res.Stats.ErrorBound = math.Max(res.Stats.ErrorBound, bound[j])
		}
		results[idx] = res
	}
	return results, nil
}

// factorEpsilon returns the ε every factor of a composition solves at so
// that the fold's propagated bound (see foldBound) stays within eps at
// every time up to tmax: eps·min(1, eps/B), where B is the largest
// per-order bound the fold would report with every factor bound at eps
// and every factor moment at its a-priori magnitude (see momentBound).
// The fold's bound is a sum of terms of degree one or more in the factor
// bounds with non-negative coefficients, non-decreasing in the
// magnitudes, so scaling every factor bound by eps/B scales it to eps or
// below (see DESIGN.md). A result that is not a positive normal float
// (B overflowed) is an ErrOverflow.
func factorEpsilon(parts []*Model, tmax float64, order int, eps float64) (float64, error) {
	mag := momentBound(parts[0], tmax, order, eps)
	bound := uniform(order+1, eps)
	for _, part := range parts[1:] {
		u := momentBound(part, tmax, order, eps)
		bound = foldBound(bound, mag, eps, u)
		mag = convolve(mag, u)
	}
	out := eps * math.Min(1, eps/slices.Max(bound))
	if !(out >= 0x1p-1022) {
		return 0, fmt.Errorf("%w: composed factor epsilon %g at t=%g, order %d (fold bound %g at ε=%g)", ErrOverflow, out, tmax, order, slices.Max(bound), eps)
	}
	return out, nil
}

// momentBound returns, for every order n, the a-priori bound
//
//	Uₙ = Σᵢ C(n,i) (ρt)ⁿ⁻ⁱ E|N(0, σ²t)|ⁱ + eps
//
// on |E[B(t)ⁿ | Z(0)=s]| + eps from every initial state s of an
// impulse-free model, with ρ the largest |drift| and σ² the largest
// variance: given the chain's path, B(t) = ∫r + N(0, V) with |∫r| ≤ ρt
// and V ≤ σ²t.
func momentBound(m *Model, t float64, order int, eps float64) []float64 {
	var rho float64
	for _, r := range m.rates {
		rho = math.Max(rho, math.Abs(r))
	}
	drift := powTable(rho*t, order)
	// E|N(0, s²)| = s·√(2/π), and E|N|ⁱ = (i−1)·s²·E|N|ⁱ⁻² for i ≥ 2.
	s2 := slices.Max(m.vars) * t
	abs := make([]float64, order+1)
	abs[0] = 1
	if order >= 1 {
		abs[1] = math.Sqrt(s2 * 2 / math.Pi)
	}
	for i := 2; i <= order; i++ {
		abs[i] = float64(i-1) * s2 * abs[i-2]
	}
	out := make([]float64, order+1)
	for n := range out {
		for i := 0; i <= n; i++ {
			out[n] += binomCoef(n, i) * drift[n-i] * abs[i]
		}
		out[n] += eps
	}
	return out
}

// foldMoments folds the factors' scalar moments left to right (see
// convolve) and propagates their error bounds through the fold (see
// foldBound).
func foldMoments(factors []*Result) (moments, bound []float64) {
	moments = factors[0].Moments
	bound = uniform(len(moments), factors[0].Stats.ErrorBound)
	for _, f := range factors[1:] {
		bound = foldBound(bound, absAll(moments), f.Stats.ErrorBound, absAll(f.Moments))
		moments = convolve(moments, f.Moments)
	}
	return moments, bound
}

// foldStates is foldMoments over the per-state moment vectors (see
// convolveStates), with the largest magnitude over the states of each
// order in place of the scalar moment.
func foldStates(factors []*Result) (vm [][]float64, bound []float64) {
	vm = factors[0].VectorMoments
	bound = uniform(len(vm), factors[0].Stats.ErrorBound)
	for _, f := range factors[1:] {
		bound = foldBound(bound, maxAbsAll(vm), f.Stats.ErrorBound, maxAbsAll(f.VectorMoments))
		vm = convolveStates(vm, f.VectorMoments)
	}
	return vm, bound
}

// convolve returns the raw moments of A + B for independent A, B with raw
// moments a and b: Σₖ C(n,k) a⁽ᵏ⁾ b⁽ⁿ⁻ᵏ⁾.
func convolve(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for n := range out {
		for k := 0; k <= n; k++ {
			out[n] += binomCoef(n, k) * a[k] * b[n-k]
		}
	}
	return out
}

// convolveStates returns the per-state moments of B_a + B_b for
// independent B_a, B_b over the product states i·n_b + j,
//
//	V⁽ⁿ⁾(i,j) = Σₖ C(n,k) A⁽ᵏ⁾ᵢ B⁽ⁿ⁻ᵏ⁾ⱼ.
func convolveStates(a, b [][]float64) [][]float64 {
	na, nb := len(a[0]), len(b[0])
	out := make([][]float64, len(a))
	for n := range out {
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
		}
		out[n] = vn
	}
	return out
}

// foldBound propagates error bounds through one convolution step. ea[n]
// bounds the absolute error of the order-n moments on the left and eb
// that of every moment on the right, whose magnitudes are at most
// ma[n] and mb[n], so by |Δ(ab)| ≤ |Δa||b| + |a||Δb| + |Δa||Δb|
//
//	e⁽ⁿ⁾ = Σₖ C(n,k)(ea[k]·mb[n-k] + ma[k]·eb + ea[k]·eb).
func foldBound(ea, ma []float64, eb float64, mb []float64) []float64 {
	out := make([]float64, len(ea))
	for n := range out {
		for k := 0; k <= n; k++ {
			out[n] += binomCoef(n, k) * (ea[k]*mb[n-k] + ma[k]*eb + ea[k]*eb)
		}
	}
	return out
}

// uniform returns a slice of n copies of v.
func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// absAll returns |v_n| for every order n.
func absAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for n, x := range v {
		out[n] = math.Abs(x)
	}
	return out
}

// maxAbsAll returns max_i |v[n][i]| for every order n.
func maxAbsAll(v [][]float64) []float64 {
	out := make([]float64, len(v))
	for n, vn := range v {
		for _, x := range vn {
			out[n] = math.Max(out[n], math.Abs(x))
		}
	}
	return out
}
