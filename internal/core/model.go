// Package core implements the paper's primary contribution: the analysis of
// second-order Markov reward models (SOMRMs), where a CTMC Z(t) modulates a
// Brownian reward accumulation B(t) with state-dependent drift r_i and
// variance sigma_i^2.
//
// The central algorithm is the randomization (uniformization) based moment
// solver of Theorems 3 and 4: with q = max_i |q_ii| and
// d = max_i {r_i, sigma_i}/q, the substochastic matrices
//
//	Q' = Q/q + I,  R' = R/(qd),  S' = S/(qd^2)
//
// drive the recursion
//
//	U^(n)(k+1) = R' U^(n-1)(k) + 1/2 S' U^(n-2)(k) + Q' U^(n)(k)
//
// and the n-th raw moment vector is the Poisson-weighted sum
//
//	V^(n)(t) = n! d^n sum_k e^{-qt} (qt)^k / k! * U^(n)(k),
//
// truncated at G chosen from the provable error bound of eq. (11).
package core

import (
	"errors"
	"fmt"
	"math"

	"somrm/internal/ctmc"
	"somrm/internal/sparse"
)

var (
	// ErrBadModel is returned when model components are inconsistent.
	ErrBadModel = errors.New("core: invalid second-order reward model")
	// ErrBadArgument is returned for invalid solver arguments.
	ErrBadArgument = errors.New("core: invalid argument")
	// ErrOverflow is returned when the moment computation exceeds the range
	// of float64 (extremely high orders combined with large qt).
	ErrOverflow = errors.New("core: moment computation overflowed float64")
)

// Model is a second-order Markov reward model (Q, R, S, pi): a CTMC
// generator, per-state reward drifts, per-state reward variances, and an
// initial distribution.
//
// A composed model (see Compose) keeps its leaf factors in parts, and the
// randomization solver convolves their moments. Large composed models are
// matrix-free: gen is nil (see IsMatrixFree), rates and vars are nil (the
// accessors build them from the parts), initial is nil while it is the
// product of the parts' (see productInitial), and every solver path that
// needs the explicit matrix rejects the model with a typed error.
type Model struct {
	gen      *ctmc.Generator
	parts    []*Model  // leaf factors of a composed model, in composition order
	rates    []float64 // r_i, may be negative
	vars     []float64 // sigma_i^2 >= 0
	initial  []float64
	impulses *sparse.CSR // optional impulse rewards y_ij >= 0 on transitions
	maxImp   float64
	// productInitial records that a composed model's initial distribution
	// is the product of its parts' (Compose sets it, WithInitial clears
	// it), so its moments fold from the parts' scalar moments.
	productInitial bool
}

// New validates and builds a model. rates may be negative (the solver
// applies the paper's shift transformation); variances must be
// non-negative; initial must be a probability distribution over the states
// of gen. All slices are copied.
func New(gen *ctmc.Generator, rates, variances, initial []float64) (*Model, error) {
	if gen == nil {
		return nil, fmt.Errorf("%w: nil generator", ErrBadModel)
	}
	n := gen.N()
	if len(rates) != n {
		return nil, fmt.Errorf("%w: %d rates for %d states", ErrBadModel, len(rates), n)
	}
	if len(variances) != n {
		return nil, fmt.Errorf("%w: %d variances for %d states", ErrBadModel, len(variances), n)
	}
	for i, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: rate r[%d]=%g", ErrBadModel, i, r)
		}
	}
	for i, s := range variances {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("%w: variance sigma2[%d]=%g", ErrBadModel, i, s)
		}
	}
	if err := gen.ValidateDistribution(initial); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return &Model{
		gen:     gen,
		rates:   append([]float64(nil), rates...),
		vars:    append([]float64(nil), variances...),
		initial: append([]float64(nil), initial...),
	}, nil
}

// NewFirstOrder builds an ordinary (first-order) Markov reward model, i.e. a
// second-order model with all variances zero. First-order MRMs are the
// classical special case the paper generalizes, and they share the solver.
func NewFirstOrder(gen *ctmc.Generator, rates, initial []float64) (*Model, error) {
	if gen == nil {
		return nil, fmt.Errorf("%w: nil generator", ErrBadModel)
	}
	return New(gen, rates, make([]float64, gen.N()), initial)
}

// WithImpulses returns a copy of the model extended with impulse rewards:
// imp.At(i, j) is added to the accumulated reward instantaneously on each
// i -> j transition. Impulses must be non-negative, zero on the diagonal,
// and only present where the generator has a transition. This is the
// extension the paper's introduction says the solution method allows.
//
// Impulses couple the factors of a composed model, so the result drops
// them and sweeps the explicit product chain like any other model.
func (m *Model) WithImpulses(imp *sparse.CSR) (*Model, error) {
	if m.gen == nil {
		return nil, fmt.Errorf("%w: impulse rewards require an explicit generator (matrix-free composed model)", ErrBadModel)
	}
	n := m.N()
	if imp.Rows() != n || imp.Cols() != n {
		return nil, fmt.Errorf("%w: impulse matrix %dx%d for %d states", ErrBadModel, imp.Rows(), imp.Cols(), n)
	}
	var maxImp float64
	var vErr error
	for i := 0; i < n && vErr == nil; i++ {
		imp.Range(i, func(j int, y float64) {
			if vErr != nil {
				return
			}
			switch {
			case i == j:
				vErr = fmt.Errorf("%w: impulse on diagonal state %d", ErrBadModel, i)
			case y < 0 || math.IsNaN(y) || math.IsInf(y, 0):
				vErr = fmt.Errorf("%w: impulse y[%d][%d]=%g", ErrBadModel, i, j, y)
			case m.gen.At(i, j) == 0:
				vErr = fmt.Errorf("%w: impulse y[%d][%d] on absent transition", ErrBadModel, i, j)
			}
			if y > maxImp {
				maxImp = y
			}
		})
	}
	if vErr != nil {
		return nil, vErr
	}
	out := *m
	out.parts = nil
	out.impulses = imp
	out.maxImp = maxImp
	return &out, nil
}

// N returns the number of structure states.
func (m *Model) N() int {
	if m.gen == nil {
		n := 1
		for _, part := range m.parts {
			n *= part.N()
		}
		return n
	}
	return len(m.rates)
}

// Generator returns the structure-state generator, or nil for a
// matrix-free composed model (see IsMatrixFree).
func (m *Model) Generator() *ctmc.Generator { return m.gen }

// IsMatrixFree reports whether the model has no explicit generator (a
// composition beyond ComposeMaterializeThreshold states or
// ComposeMaterializeEntries generator entries): Generator returns nil,
// and only the randomization solver, which convolves the factors'
// moments, accepts the model.
func (m *Model) IsMatrixFree() bool { return m.gen == nil }

// Rates returns a copy of the drift vector r. A matrix-free model builds
// it from its factors on each call.
func (m *Model) Rates() []float64 {
	if m.gen == nil {
		return productVector(m.parts, (*Model).Rates, add)
	}
	return append([]float64(nil), m.rates...)
}

// Variances returns a copy of the variance vector sigma^2. A matrix-free
// model builds it from its factors on each call.
func (m *Model) Variances() []float64 {
	if m.gen == nil {
		return productVector(m.parts, (*Model).Variances, add)
	}
	return append([]float64(nil), m.vars...)
}

// Initial returns a copy of the initial probability vector pi. A
// matrix-free model with the product of its factors' distributions builds
// it on each call.
func (m *Model) Initial() []float64 {
	if m.initial == nil {
		return productVector(m.parts, (*Model).Initial, mul)
	}
	return append([]float64(nil), m.initial...)
}

// HasImpulses reports whether the model carries impulse rewards.
func (m *Model) HasImpulses() bool { return m.impulses != nil }

// Impulses returns the impulse reward matrix (nil when absent; shared,
// treat as read-only).
func (m *Model) Impulses() *sparse.CSR { return m.impulses }

// IsFirstOrder reports whether every state variance is zero (ordinary MRM).
func (m *Model) IsFirstOrder() bool {
	if m.gen == nil {
		for _, part := range m.parts {
			if !part.IsFirstOrder() {
				return false
			}
		}
		return true
	}
	for _, s := range m.vars {
		if s != 0 {
			return false
		}
	}
	return true
}

// WithInitial returns a copy of the model with a different initial
// distribution (the per-state moment vectors do not depend on it, but the
// aggregated moments do). A composed model given one solves through its
// per-state moments (see Compose), since the distribution need not be a
// product of its factors'.
func (m *Model) WithInitial(initial []float64) (*Model, error) {
	if m.gen != nil {
		if err := m.gen.ValidateDistribution(initial); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
	} else if err := validateDistribution(initial, m.N()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	out := *m
	out.initial = append([]float64(nil), initial...)
	out.productInitial = false
	return &out, nil
}
