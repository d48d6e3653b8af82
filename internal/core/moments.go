package core

import (
	"fmt"
	"math"
)

// Mean returns E[B(t)] under the initial distribution. The result must hold
// at least the first moment.
func (r *Result) Mean() (float64, error) {
	if r.Order < 1 {
		return 0, fmt.Errorf("%w: result holds moments up to order %d", ErrBadArgument, r.Order)
	}
	return r.Moments[1], nil
}

// Variance returns Var[B(t)] = E[B^2] - E[B]^2.
func (r *Result) Variance() (float64, error) {
	if r.Order < 2 {
		return 0, fmt.Errorf("%w: result holds moments up to order %d", ErrBadArgument, r.Order)
	}
	v := r.Moments[2] - r.Moments[1]*r.Moments[1]
	if v < 0 && v > -1e-9*math.Abs(r.Moments[2]) {
		v = 0 // clamp tiny negative rounding
	}
	return v, nil
}

// StdDev returns the standard deviation of B(t).
func (r *Result) StdDev() (float64, error) {
	v, err := r.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Skewness returns the standardized third central moment of B(t).
func (r *Result) Skewness() (float64, error) {
	cm, err := r.CentralMoments()
	if err != nil {
		return 0, err
	}
	if len(cm) < 4 {
		return 0, fmt.Errorf("%w: skewness needs order >= 3", ErrBadArgument)
	}
	// Treat numerically-zero variance (rounding residue of a deterministic
	// reward) as zero: skewness is undefined there.
	if cm[2] <= 1e-12*(1+math.Abs(r.Moments[2])) {
		return 0, fmt.Errorf("%w: zero variance", ErrBadArgument)
	}
	sd := math.Sqrt(cm[2])
	return cm[3] / (sd * sd * sd), nil
}

// CentralMoments converts the raw moments to central moments
// mu_j = E[(B - E[B])^j] with the binomial identity
// mu_j = sum_l C(j,l) m_l (-m_1)^{j-l}. Index 0 is 1 and index 1 is 0.
func (r *Result) CentralMoments() ([]float64, error) {
	return RawToCentral(r.Moments)
}

// RawToCentral converts raw moments (starting at order 0) to central
// moments of the same length.
func RawToCentral(raw []float64) ([]float64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty moment sequence", ErrBadArgument)
	}
	if math.Abs(raw[0]-1) > 1e-6 {
		return nil, fmt.Errorf("%w: raw[0]=%g, want 1", ErrBadArgument, raw[0])
	}
	n := len(raw) - 1
	out := make([]float64, n+1)
	out[0] = 1
	if n == 0 {
		return out, nil
	}
	mean := raw[1]
	binom := make([]float64, n+1)
	for j := 1; j <= n; j++ {
		binom[j] = 1
		for l := j - 1; l > 0; l-- {
			binom[l] += binom[l-1]
		}
		binom[0] = 1
		var s float64
		for l := 0; l <= j; l++ {
			s += binom[l] * raw[l] * math.Pow(-mean, float64(j-l))
		}
		out[j] = s
	}
	out[1] = 0 // exactly zero by construction; avoid rounding residue
	return out, nil
}

// RawToCumulants converts raw moments to cumulants kappa_1..kappa_n using
// the recursive identity m_n = sum_{k=1}^{n} C(n-1,k-1) kappa_k m_{n-k}.
// The returned slice has cumulants at indices 1..n (index 0 unused).
func RawToCumulants(raw []float64) ([]float64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty moment sequence", ErrBadArgument)
	}
	n := len(raw) - 1
	kappa := make([]float64, n+1)
	for j := 1; j <= n; j++ {
		s := raw[j]
		for k := 1; k < j; k++ {
			s -= binomCoef(j-1, k-1) * kappa[k] * raw[j-k]
		}
		kappa[j] = s
	}
	return kappa, nil
}

func binomCoef(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// TimeAveraged returns the raw moments of the time-averaged reward
// B(t)/t, i.e. Moments[j] / t^j — the per-unit-time performability measure
// (e.g. average available capacity) derived from the same solve. It
// errors at t = 0, where the time average is undefined.
func (r *Result) TimeAveraged() ([]float64, error) {
	if r.T == 0 {
		return nil, fmt.Errorf("%w: time average undefined at t=0", ErrBadArgument)
	}
	out := make([]float64, len(r.Moments))
	scale := 1.0
	for j, m := range r.Moments {
		out[j] = m / scale
		scale *= r.T
	}
	return out, nil
}

// MeanVector computes just the first-moment vector E[B(t) | Z(0)=i] using a
// full solve at order 1; a convenience for plotting Figure 3.
func (m *Model) MeanVector(t float64, opts *Options) ([]float64, error) {
	res, err := m.AccumulatedReward(t, 1, opts)
	if err != nil {
		return nil, err
	}
	return res.StateMoments()[1], nil
}

// SteadyStateMeanRate returns pi_ss · r, the long-run reward accumulation
// rate from the stationary distribution of the structure process. Figure 3
// plots t * SteadyStateMeanRate as the "starting from steady state" line.
func (m *Model) SteadyStateMeanRate() (float64, error) {
	if m.gen == nil {
		return 0, fmt.Errorf("%w: steady-state rate requires an explicit generator (matrix-free composed model)", ErrBadArgument)
	}
	pi, err := m.gen.StationaryDistribution()
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	var s float64
	for i, p := range pi {
		s += p * m.rates[i]
	}
	return s, nil
}
