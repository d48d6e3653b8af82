package core

import (
	"fmt"
	"math"
	"slices"

	"somrm/internal/momentbounds"
)

// CompletionBound bounds the completion-time distribution
// P(T(x) <= t), where T(x) = inf{u : B(u) >= x} is the first time the
// accumulated reward reaches the work requirement x.
type CompletionBound struct {
	// Lower and Upper bound P(T(x) <= t). For second-order models only the
	// Lower bound is sharp from this construction (see Exact); Upper is
	// then reported as 1.
	Lower, Upper float64
	// Exact reports whether {T(x) <= t} = {B(t) >= x} holds, i.e. the
	// reward path is monotone non-decreasing (first-order model with
	// non-negative drifts and impulses). In that case both bounds are the
	// sharp moment bounds of the event probability.
	Exact bool
}

// CompletionProbability bounds P(T(x) <= t) using numMoments moments of
// B(t) and the Chebyshev-Markov inequality machinery:
//
//	P(T(x) <= t) >= P(B(t) >= x)
//
// always (if the reward reached x it may have dropped back, but it did hit
// it), with equality when the reward path is monotone. This is the
// second-order analogue of the classical completion-time duality of
// first-order preemptive-resume reward models; the non-monotonicity of
// Brownian accumulation (section 3 of the paper) is exactly what breaks
// the equality.
func (m *Model) CompletionProbability(x, t float64, numMoments int, opts *Options) (CompletionBound, error) {
	if numMoments < 2 {
		return CompletionBound{}, fmt.Errorf("%w: need at least 2 moments, got %d", ErrBadArgument, numMoments)
	}
	if math.IsNaN(x) {
		return CompletionBound{}, fmt.Errorf("%w: level is NaN", ErrBadArgument)
	}
	res, err := m.AccumulatedReward(t, numMoments, opts)
	if err != nil {
		return CompletionBound{}, err
	}
	est, err := momentbounds.New(res.Moments)
	if err != nil {
		return CompletionBound{}, fmt.Errorf("core: completion bounds: %w", err)
	}
	tail, err := est.TailBounds(x)
	if err != nil {
		return CompletionBound{}, fmt.Errorf("core: completion bounds: %w", err)
	}

	out := CompletionBound{Lower: tail.Lower, Upper: 1, Exact: m.isMonotone()}
	if out.Exact {
		out.Upper = tail.Upper
	}
	return out, nil
}

// isMonotone reports whether every reward path is non-decreasing: zero
// variances, non-negative drifts (impulses are non-negative by
// construction). A matrix-free composition is monotone when its factors
// are first-order and the sum of their smallest drifts, its smallest
// drift, is non-negative.
func (m *Model) isMonotone() bool {
	if m.gen == nil {
		lo := 0.0
		for _, part := range m.parts {
			lo += slices.Min(part.rates)
		}
		return m.IsFirstOrder() && lo >= 0
	}
	for i := range m.vars {
		if m.vars[i] != 0 || m.rates[i] < 0 {
			return false
		}
	}
	return true
}
