// Package pde solves the partial differential equation (4) of the paper
// for the density of the accumulated reward,
//
//	d/dt b(t,x) + R d/dx b(t,x) - 1/2 S d^2/dx^2 b(t,x) = Q b(t,x),
//
// with the method of lines: upwind differencing for the advection term,
// central differencing for the diffusion term, and RK4 time stepping under
// a CFL-limited step. As the paper notes, this route is viable only for
// small models (it is used here for distribution cross-checks on models
// with tens of states, against the moment-bound and transform methods).
package pde

import (
	"errors"
	"fmt"
	"math"

	"somrm/internal/brownian"
	"somrm/internal/core"
	"somrm/internal/odesolver"
)

// ErrBadArgument is returned for invalid solver arguments.
var ErrBadArgument = errors.New("pde: invalid argument")

// Options configures the density solver.
type Options struct {
	// XMin, XMax bound the truncated reward domain. When both are zero the
	// domain is chosen automatically as mean +/- 10 standard deviations
	// from a quick moment solve.
	XMin, XMax float64
	// GridPoints is the number of spatial grid points (default 801).
	GridPoints int
	// WarmupFraction is the fraction of t integrated analytically (frozen
	// state, exact normal kernel) to regularize the Dirac initial
	// condition; default 0.01.
	WarmupFraction float64
	// Safety scales the CFL time step (default 0.8).
	Safety float64
}

// Solution is the density of B(t) on a spatial grid, per initial state.
type Solution struct {
	// X is the grid; Density[i][j] = b_i(t, X[j]).
	X       []float64
	Density [][]float64
	// Steps is the number of RK4 time steps taken.
	Steps int
}

// SolveDensity integrates eq. (4) to time t. Every state variance must be
// positive (a zero-variance state keeps a Dirac component that a grid
// method cannot represent; use the moment bounds or Gil-Pelaez CDF for
// those models).
func SolveDensity(m *core.Model, t float64, opts *Options) (*Solution, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadArgument)
	}
	if m.HasImpulses() {
		return nil, fmt.Errorf("%w: impulse rewards not supported by the PDE solver", ErrBadArgument)
	}
	if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("%w: time %g", ErrBadArgument, t)
	}
	vars := m.Variances()
	for i, v := range vars {
		if v <= 0 {
			return nil, fmt.Errorf("%w: state %d has sigma^2=%g; PDE solver needs positive variances", ErrBadArgument, i, v)
		}
	}
	cfg := Options{GridPoints: 801, WarmupFraction: 0.01, Safety: 0.8}
	if opts != nil {
		if opts.GridPoints != 0 {
			cfg.GridPoints = opts.GridPoints
		}
		if opts.WarmupFraction != 0 {
			cfg.WarmupFraction = opts.WarmupFraction
		}
		if opts.Safety != 0 {
			cfg.Safety = opts.Safety
		}
		cfg.XMin, cfg.XMax = opts.XMin, opts.XMax
	}
	if cfg.GridPoints < 10 {
		return nil, fmt.Errorf("%w: grid of %d points", ErrBadArgument, cfg.GridPoints)
	}
	if cfg.WarmupFraction <= 0 || cfg.WarmupFraction >= 1 {
		return nil, fmt.Errorf("%w: warmup fraction %g", ErrBadArgument, cfg.WarmupFraction)
	}

	if cfg.XMin == 0 && cfg.XMax == 0 {
		lo, hi, err := autoDomain(m, t)
		if err != nil {
			return nil, err
		}
		cfg.XMin, cfg.XMax = lo, hi
	}
	if cfg.XMax <= cfg.XMin {
		return nil, fmt.Errorf("%w: domain [%g, %g]", ErrBadArgument, cfg.XMin, cfg.XMax)
	}

	n := m.N()
	mpts := cfg.GridPoints
	dx := (cfg.XMax - cfg.XMin) / float64(mpts-1)
	x := make([]float64, mpts)
	for j := range x {
		x[j] = cfg.XMin + float64(j)*dx
	}
	rates := m.Rates()
	qDense := m.Generator().Matrix().Dense()

	// Warmup: exact frozen-state normal kernels at t0 (transitions in
	// (0, t0) are an O(q*t0) error, controlled by WarmupFraction).
	t0 := cfg.WarmupFraction * t
	y := make([]float64, n*mpts)
	for i := 0; i < n; i++ {
		for j := 0; j < mpts; j++ {
			y[i*mpts+j] = brownian.NormalPDF(x[j], rates[i]*t0, vars[i]*t0)
		}
	}

	// Method of lines: db_i/dt = -r_i D_x b_i + sigma_i^2/2 D_xx b_i + sum_k q_ik b_k.
	deriv := func(_ float64, state, dstate []float64) {
		for i := 0; i < n; i++ {
			bi := state[i*mpts : (i+1)*mpts]
			di := dstate[i*mpts : (i+1)*mpts]
			ri := rates[i]
			si := vars[i] / 2
			for j := 0; j < mpts; j++ {
				// Advection, upwinded by the sign of r_i.
				var adv float64
				switch {
				case ri > 0 && j >= 1:
					adv = ri * (bi[j] - bi[j-1]) / dx
				case ri < 0 && j+1 < mpts:
					adv = ri * (bi[j+1] - bi[j]) / dx
				}
				// Diffusion, central with homogeneous Dirichlet walls.
				var left, right float64
				if j >= 1 {
					left = bi[j-1]
				}
				if j+1 < mpts {
					right = bi[j+1]
				}
				diff := si * (left - 2*bi[j] + right) / (dx * dx)
				// Coupling through the generator.
				var coup float64
				for k := 0; k < n; k++ {
					if c := qDense[i*n+k]; c != 0 {
						coup += c * state[k*mpts+j]
					}
				}
				di[j] = -adv + diff + coup
			}
		}
	}

	// CFL-limited RK4 step.
	maxRate := 0.0
	for i := 0; i < n; i++ {
		c := math.Abs(rates[i])/dx + vars[i]/(dx*dx) + math.Abs(qDense[i*n+i])
		if c > maxRate {
			maxRate = c
		}
	}
	horizon := t - t0
	dt := cfg.Safety / maxRate
	steps := int(math.Ceil(horizon / dt))
	if steps < 1 {
		steps = 1
	}
	out, err := odesolver.RK4(deriv, y, 0, horizon, steps)
	if err != nil {
		return nil, fmt.Errorf("pde: %w", err)
	}

	sol := &Solution{X: x, Density: make([][]float64, n), Steps: steps}
	for i := 0; i < n; i++ {
		row := make([]float64, mpts)
		copy(row, out[i*mpts:(i+1)*mpts])
		for j, v := range row {
			if v < 0 {
				row[j] = 0 // clip upwind undershoot
			}
		}
		sol.Density[i] = row
	}
	return sol, nil
}

// autoDomain sizes the truncated domain from a quick second-moment solve:
// the widest per-state mean +/- 10 standard deviations.
func autoDomain(m *core.Model, t float64) (float64, float64, error) {
	res, err := m.AccumulatedReward(t, 2, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("pde: auto domain: %w", err)
	}
	vm := res.StateMoments()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < m.N(); i++ {
		mean := vm[1][i]
		v := vm[2][i] - mean*mean
		if v < 0 {
			v = 0
		}
		sd := math.Sqrt(v)
		if a := mean - 10*sd; a < lo {
			lo = a
		}
		if b := mean + 10*sd; b > hi {
			hi = b
		}
	}
	if !(hi > lo) {
		return 0, 0, fmt.Errorf("%w: degenerate auto domain [%g, %g]", ErrBadArgument, lo, hi)
	}
	// Pad a little for diffusion into the walls.
	pad := 0.05 * (hi - lo)
	return lo - pad, hi + pad, nil
}
