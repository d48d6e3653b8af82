// Package ctmc implements the continuous-time Markov chain substrate of the
// reward models: generator matrices, uniformized transient analysis,
// stationary distributions (GTH), a dense matrix exponential used as a test
// oracle, and birth-death chain builders for the paper's ON-OFF example.
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"somrm/internal/sparse"
)

// Default numerical tolerances for generator validation.
const (
	// RowSumTol is the largest acceptable |row sum| of a generator.
	RowSumTol = 1e-9
)

var (
	// ErrNotGenerator is returned when a matrix fails generator validation.
	ErrNotGenerator = errors.New("ctmc: not a valid generator matrix")
	// ErrBadDistribution is returned for invalid probability vectors.
	ErrBadDistribution = errors.New("ctmc: not a valid probability distribution")
)

// Generator is a validated CTMC generator (infinitesimal) matrix Q:
// non-negative off-diagonal rates, diagonal q_ii = -sum of the row's
// off-diagonal rates.
type Generator struct {
	m *sparse.CSR
	q float64 // max_i |q_ii|, the uniformization rate
}

// NewGenerator validates and wraps a CSR matrix as a generator.
func NewGenerator(m *sparse.CSR) (*Generator, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("%w: shape %dx%d", ErrNotGenerator, m.Rows(), m.Cols())
	}
	n := m.Rows()
	var q float64
	for i := 0; i < n; i++ {
		var rowSum float64
		bad := false
		badJ := -1
		badV := 0.0
		m.Range(i, func(j int, v float64) {
			rowSum += v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad, badJ, badV = true, j, v
			}
			if i != j && v < 0 {
				bad, badJ, badV = true, j, v
			}
			if i == j && v > 0 {
				bad, badJ, badV = true, j, v
			}
		})
		if bad {
			return nil, fmt.Errorf("%w: invalid rate q[%d][%d]=%g", ErrNotGenerator, i, badJ, badV)
		}
		// Row sums must vanish up to rounding, scaled by the row magnitude.
		scale := math.Abs(m.At(i, i))
		if scale < 1 {
			scale = 1
		}
		if math.Abs(rowSum) > RowSumTol*scale {
			return nil, fmt.Errorf("%w: row %d sums to %g", ErrNotGenerator, i, rowSum)
		}
		if d := -m.At(i, i); d > q {
			q = d
		}
	}
	return &Generator{m: m, q: q}, nil
}

// NewGeneratorFromDense validates a row-major dense rate matrix.
func NewGeneratorFromDense(n int, data []float64) (*Generator, error) {
	m, err := sparse.NewCSRFromDense(n, n, data)
	if err != nil {
		return nil, fmt.Errorf("ctmc: %w", err)
	}
	return NewGenerator(m)
}

// NewGeneratorFromRates builds a generator from off-diagonal rates only:
// rates[i][j] is the transition rate i -> j (i != j); diagonals are derived.
// Entries on the diagonal of rates are ignored.
func NewGeneratorFromRates(n int, rate func(i, j int) float64) (*Generator, error) {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		var exit float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rate(i, j)
			if v == 0 {
				continue
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: rate(%d,%d)=%g", ErrNotGenerator, i, j, v)
			}
			if err := b.Add(i, j, v); err != nil {
				return nil, fmt.Errorf("ctmc: %w", err)
			}
			exit += v
		}
		if exit != 0 {
			if err := b.Add(i, i, -exit); err != nil {
				return nil, fmt.Errorf("ctmc: %w", err)
			}
		}
	}
	return NewGenerator(b.Build())
}

// N returns the number of states.
func (g *Generator) N() int { return g.m.Rows() }

// Matrix returns the underlying CSR generator matrix (shared; treat as
// read-only).
func (g *Generator) Matrix() *sparse.CSR { return g.m }

// MaxExitRate returns q = max_i |q_ii|, the uniformization rate.
func (g *Generator) MaxExitRate() float64 { return g.q }

// At returns the rate q_ij.
func (g *Generator) At(i, j int) float64 { return g.m.At(i, j) }

// Uniformized returns the DTMC matrix Q' = Q/q + I for the given
// uniformization rate q >= MaxExitRate (q = 0 is rejected), built in one
// pass as compact CSR (see sparse.Uniformize). The result is stochastic up
// to rounding.
func (g *Generator) Uniformized(q float64) (*sparse.CSR, error) {
	if q <= 0 {
		return nil, fmt.Errorf("ctmc: uniformization rate must be positive, got %g", q)
	}
	if q < g.q*(1-1e-12) {
		return nil, fmt.Errorf("ctmc: uniformization rate %g below max exit rate %g", q, g.q)
	}
	p, err := sparse.Uniformize(g.m, 1/q, sparse.FormatCSR, false)
	if err != nil {
		return nil, fmt.Errorf("ctmc: %w", err)
	}
	return p.CSR(), nil
}

// ValidateDistribution checks that pi is a probability vector over the
// chain's state space.
func (g *Generator) ValidateDistribution(pi []float64) error {
	if len(pi) != g.N() {
		return fmt.Errorf("%w: length %d, want %d", ErrBadDistribution, len(pi), g.N())
	}
	var sum float64
	for i, p := range pi {
		if p < 0 || math.IsNaN(p) || p > 1+1e-12 {
			return fmt.Errorf("%w: pi[%d]=%g", ErrBadDistribution, i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: sums to %g", ErrBadDistribution, sum)
	}
	return nil
}

// UnitDistribution returns the distribution concentrated on state i.
func UnitDistribution(n, i int) ([]float64, error) {
	if i < 0 || i >= n {
		return nil, fmt.Errorf("%w: state %d of %d", ErrBadDistribution, i, n)
	}
	pi := make([]float64, n)
	pi[i] = 1
	return pi, nil
}
