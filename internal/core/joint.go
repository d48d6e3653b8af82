package core

import (
	"fmt"
	"math"

	"somrm/internal/poisson"
)

// JointResult holds the joint reward-state moments
//
//	M^(j)[i][k] = E[ B(t)^j * 1{Z(t)=k} | Z(0)=i ],
//
// the matrix generalization of the moment vectors: summing over the final
// state k recovers V^(j), and order 0 is exactly the transient probability
// matrix. Joint moments support conditioning on the final state (e.g.
// "expected work done, given the system ended operational") and
// compositional/hierarchical analyses.
type JointResult struct {
	T     float64
	Order int
	// Moments[j] is the n x n matrix M^(j) in row-major state order
	// (row = initial state, column = final state).
	Moments [][]float64
	Stats   Stats
}

// At returns M^(j)[i][k].
func (r *JointResult) At(j, i, k int) (float64, error) {
	n := r.states()
	if j < 0 || j > r.Order || i < 0 || i >= n || k < 0 || k >= n {
		return 0, fmt.Errorf("%w: joint moment (%d,%d,%d)", ErrBadArgument, j, i, k)
	}
	return r.Moments[j][i*n+k], nil
}

// Marginal returns the per-initial-state moment vector V^(j) by summing
// over the final state.
func (r *JointResult) Marginal(j int) ([]float64, error) {
	if j < 0 || j > r.Order {
		return nil, fmt.Errorf("%w: order %d of %d", ErrBadArgument, j, r.Order)
	}
	n := r.states()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < n; k++ {
			s += r.Moments[j][i*n+k]
		}
		out[i] = s
	}
	return out, nil
}

// ConditionalMean returns E[B(t) | Z(0)=i, Z(t)=k] =
// M^(1)[i][k] / M^(0)[i][k]. It errors when the conditioning event has
// (numerically) zero probability.
func (r *JointResult) ConditionalMean(i, k int) (float64, error) {
	if r.Order < 1 {
		return 0, fmt.Errorf("%w: joint result holds order %d", ErrBadArgument, r.Order)
	}
	p, err := r.At(0, i, k)
	if err != nil {
		return 0, err
	}
	if p <= 0 {
		return 0, fmt.Errorf("%w: P(Z(t)=%d | Z(0)=%d) = %g", ErrBadArgument, k, i, p)
	}
	m1, err := r.At(1, i, k)
	if err != nil {
		return 0, err
	}
	return m1 / p, nil
}

func (r *JointResult) states() int {
	if len(r.Moments) == 0 {
		return 0
	}
	return int(math.Sqrt(float64(len(r.Moments[0]))))
}

// JointMoments computes the joint reward-state moments up to the given
// order with the same randomization recursion as AccumulatedReward, run on
// matrix coefficients: U^(j)(0) = I (for j = 0) and
//
//	U^(j)(k+1) = Q' U^(j)(k) + R' U^(j-1)(k) + 1/2 S' U^(j-2)(k).
//
// Cost and memory are n times the vector solver; intended for small to
// medium models. Impulse models are supported with the same extended
// recursion as the vector solver.
func (m *Model) JointMoments(t float64, order int, opts *Options) (*JointResult, error) {
	cfg := opts.withDefaults()
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("%w: time %g", ErrBadArgument, t)
	}
	if order < 0 {
		return nil, fmt.Errorf("%w: moment order %d", ErrBadArgument, order)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("%w: epsilon %g not in (0,1)", ErrBadArgument, cfg.Epsilon)
	}

	n := m.N()
	res := &JointResult{T: t, Order: order}

	if m.gen == nil {
		return nil, fmt.Errorf("%w: joint moments require an explicit generator (matrix-free composed model)", ErrBadArgument)
	}
	q := m.gen.MaxExitRate()
	if cfg.UniformizationRate != 0 {
		if cfg.UniformizationRate < q {
			return nil, fmt.Errorf("%w: uniformization rate %g below max exit rate %g", ErrBadArgument, cfg.UniformizationRate, q)
		}
		q = cfg.UniformizationRate
	}
	if t == 0 || q == 0 {
		// Frozen or zero-horizon: Z(t) = Z(0) and B is per-state normal
		// (zero at t=0).
		vm, err := frozenMoments(m, t, order)
		if err != nil {
			return nil, err
		}
		res.Moments = make([][]float64, order+1)
		for j := 0; j <= order; j++ {
			mat := make([]float64, n*n)
			for i := 0; i < n; i++ {
				mat[i*n+i] = vm[j][i]
			}
			res.Moments[j] = mat
		}
		return res, nil
	}

	shift := 0.0
	for _, r := range m.rates {
		if r < shift {
			shift = r
		}
	}
	shifted := make([]float64, n)
	d := 0.0
	for i := range m.rates {
		shifted[i] = m.rates[i] - shift
		if v := shifted[i] / q; v > d {
			d = v
		}
		if v := math.Sqrt(m.vars[i]) / q; v > d {
			d = v
		}
	}
	if m.impulses != nil && m.maxImp > d {
		d = m.maxImp
	}
	if d == 0 {
		// B == shift * t deterministically; the state still moves.
		probs := make([]float64, n*n)
		for i := 0; i < n; i++ {
			row, err := m.gen.TransientDistribution(unitRow(n, i), t, cfg.Epsilon)
			if err != nil {
				return nil, err
			}
			copy(probs[i*n:(i+1)*n], row)
		}
		res.Moments = make([][]float64, order+1)
		for j := 0; j <= order; j++ {
			mat := make([]float64, n*n)
			c := math.Pow(shift*t, float64(j))
			for idx, v := range probs {
				mat[idx] = c * v
			}
			res.Moments[j] = mat
		}
		return res, nil
	}

	qPrime, err := m.gen.Uniformized(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rPrime := make([]float64, n)
	sPrime := make([]float64, n)
	for i := 0; i < n; i++ {
		rPrime[i] = shifted[i] / (q * d)
		sPrime[i] = m.vars[i] / (q * d * d)
	}
	var impPrime []*imSlice
	if m.impulses != nil && order >= 1 {
		mats, err := m.impulseMatrices(q, d, order)
		if err != nil {
			return nil, err
		}
		impPrime = make([]*imSlice, len(mats))
		for i := range mats {
			impPrime[i] = &imSlice{mat: mats[i]}
		}
	}

	var tab poisson.Table
	poissonTable(&tab, q*t, order)
	g, bound, err := truncationPoint(&tab, order, d, q*t, cfg.Epsilon, impPrime != nil, cfg.MaxG)
	if err != nil {
		return nil, err
	}
	stats := Stats{Q: q, QT: q * t, D: d, Shift: shift, G: g, ErrorBound: bound}

	// Matrix coefficients, row-major n x n, one per order.
	cur := make([][]float64, order+1)
	next := make([][]float64, order+1)
	acc := make([][]float64, order+1)
	for j := 0; j <= order; j++ {
		cur[j] = make([]float64, n*n)
		next[j] = make([]float64, n*n)
		acc[j] = make([]float64, n*n)
	}
	for i := 0; i < n; i++ {
		cur[0][i*n+i] = 1
	}
	weights, _, _ := tab.Window(g)
	if w0 := weights[0]; w0 > 0 {
		for i := 0; i < n; i++ {
			acc[0][i*n+i] = w0
		}
	}

	// One uniformized step applied to every column at once: row i of the
	// new U is Q' applied to row-space... note U evolves by LEFT
	// multiplication (U_new = Q' U + diag terms), which in row-major terms
	// mixes rows of U: (Q'U)[i][.] = sum_l Q'[i][l] U[l][.].
	rowScratch := make([]float64, n*n)
	for k := 1; k <= g; k++ {
		for j := order; j >= 0; j-- {
			// Q' U: for each row i accumulate Q'[i][l] * U[l][:].
			for idx := range rowScratch {
				rowScratch[idx] = 0
			}
			for i := 0; i < n; i++ {
				dst := rowScratch[i*n : (i+1)*n]
				qPrime.Range(i, func(l int, v float64) {
					src := cur[j][l*n : (l+1)*n]
					for c := 0; c < n; c++ {
						dst[c] += v * src[c]
					}
				})
			}
			stats.MatVecs += int64(n)
			if j >= 1 {
				for i := 0; i < n; i++ {
					ri := rPrime[i]
					if ri == 0 {
						continue
					}
					src := cur[j-1][i*n : (i+1)*n]
					dst := rowScratch[i*n : (i+1)*n]
					for c := 0; c < n; c++ {
						dst[c] += ri * src[c]
					}
				}
			}
			if j >= 2 {
				for i := 0; i < n; i++ {
					si := 0.5 * sPrime[i]
					if si == 0 {
						continue
					}
					src := cur[j-2][i*n : (i+1)*n]
					dst := rowScratch[i*n : (i+1)*n]
					for c := 0; c < n; c++ {
						dst[c] += si * src[c]
					}
				}
			}
			if impPrime != nil {
				invFact := 1.0
				for mm := 1; mm <= j; mm++ {
					invFact /= float64(mm)
					for i := 0; i < n; i++ {
						dst := rowScratch[i*n : (i+1)*n]
						impPrime[mm-1].mat.Range(i, func(l int, v float64) {
							src := cur[j-mm][l*n : (l+1)*n]
							for c := 0; c < n; c++ {
								dst[c] += invFact * v * src[c]
							}
						})
					}
				}
			}
			copy(next[j], rowScratch)
		}
		cur, next = next, cur
		if w := weights[k]; w > 0 {
			for j := 0; j <= order; j++ {
				cj := cur[j]
				aj := acc[j]
				for idx := range aj {
					aj[idx] += w * cj[idx]
				}
			}
		}
	}

	// Scale and unshift (matrix version of the binomial identity).
	scaled := make([][]float64, order+1)
	scale := 1.0
	for j := 0; j <= order; j++ {
		if j > 0 {
			scale *= float64(j) * d
		}
		mat := make([]float64, n*n)
		for idx, v := range acc[j] {
			mat[idx] = scale * v
			if math.IsInf(mat[idx], 0) || math.IsNaN(mat[idx]) {
				return nil, fmt.Errorf("%w: joint moment order %d", ErrOverflow, j)
			}
		}
		scaled[j] = mat
	}
	res.Moments = unshiftMatrices(scaled, shift, t, order)
	res.Stats = stats
	return res, nil
}

// imSlice adapts an impulse CSR matrix for the joint recursion.
type imSlice struct {
	mat interface {
		Range(i int, fn func(j int, v float64))
	}
}

func unitRow(n, i int) []float64 {
	out := make([]float64, n)
	out[i] = 1
	return out
}

// unshiftMatrices applies M^(j) = sum_l C(j,l) (shift t)^{j-l} M̌^(l).
func unshiftMatrices(mm [][]float64, shift, t float64, order int) [][]float64 {
	if shift == 0 {
		return mm
	}
	size := len(mm[0])
	c := shift * t
	out := make([][]float64, order+1)
	binom := make([]float64, order+1)
	for j := 0; j <= order; j++ {
		binom[j] = 1
		for l := j - 1; l > 0; l-- {
			binom[l] += binom[l-1]
		}
		out[j] = make([]float64, size)
		for l := 0; l <= j; l++ {
			coef := binom[l] * math.Pow(c, float64(j-l))
			if coef == 0 {
				continue
			}
			src := mm[l]
			dst := out[j]
			for idx := range dst {
				dst[idx] += coef * src[idx]
			}
		}
	}
	return out
}
