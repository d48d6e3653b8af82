package main

import (
	"fmt"
	"math"

	"somrm/internal/models"
	"somrm/internal/odesolver"
	"somrm/internal/server"
)

// The oracle never runs the code path under test. An ON–OFF multiplexer
// with capacity C and n sources accumulates B(t) = C·t + Σ B_k(t), where the
// B_k are independent copies of a single two-state source (OFF: drift 0,
// variance 0; ON: drift −R, variance σ²; OFF→ON at rate β, ON→OFF at rate
// α; it starts OFF). Cumulants of independent sums add, so
//
//	κ_j(B) = Σ_groups n·κ_j(B_1) + [j = 1]·C·t,
//
// and a composition of multiplexers is one more sum. The two-state source is
// solved by integrating the paper's eq. 6 moment ODE (internal/odesolver,
// fixed-step RK4) — a different method on a different model from the
// randomization sweep the server runs on the full chain.

// momentRelTol is the oracle's tolerance: every raw moment E[B^j] of a
// response must lie within this relative distance of the oracle's. The
// solver guarantees ε = 1e-9 (eq. 11) on its scaled moments; the worst
// error measured on all four workloads is 7e-12 (TestOracleMatchesServer
// logs it), so 1e-8 leaves three decades of margin while still rejecting
// any perturbation a wrong kernel, a stale cache entry or a dropped
// iteration would cause.
const momentRelTol = 1e-8

// odeSteps is the RK4 step count for the two-state source. With exit rates
// below 10 and t ≤ 1 the step is ≤ 2.5e-4, so the method error (~(qh)^4)
// sits at rounding level.
const odeSteps = 4000

// source is one two-state ON–OFF source.
type source struct {
	Alpha, Beta, R, Sigma2 float64
}

// group is n identical sources sharing a capacity C.
type group struct {
	Src source
	N   int
	C   float64
}

// oracle memoizes the two-state source moments by (source, t, order).
type oracle struct {
	memo map[oracleKey][]float64
}

type oracleKey struct {
	src   source
	t     float64
	order int
}

func newOracle() *oracle { return &oracle{memo: map[oracleKey][]float64{}} }

// sourceMoments returns E[B_1(t)^j], j = 0..order, for one source.
func (o *oracle) sourceMoments(s source, t float64, order int) ([]float64, error) {
	k := oracleKey{s, t, order}
	if m, ok := o.memo[k]; ok {
		return m, nil
	}
	two, err := models.OnOff(models.OnOffParams{N: 1, Alpha: s.Alpha, Beta: s.Beta, R: s.R, Sigma2: s.Sigma2})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	vm, err := odesolver.MomentsByODE(two, t, order, &odesolver.MomentOptions{Method: odesolver.MethodRK4, Steps: odeSteps})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	m := make([]float64, order+1)
	for j := range m {
		m[j] = vm[j][0] // the source starts OFF (state 0)
	}
	o.memo[k] = m
	return m, nil
}

// moments returns the raw moments E[B(t)^j], j = 0..order, of the sum of
// the given groups.
func (o *oracle) moments(groups []group, t float64, order int) ([]float64, error) {
	kappa := make([]float64, order+1)
	for _, g := range groups {
		m, err := o.sourceMoments(g.Src, t, order)
		if err != nil {
			return nil, err
		}
		k := cumulants(m)
		for j := 1; j <= order; j++ {
			kappa[j] += float64(g.N) * k[j]
		}
		if order >= 1 {
			kappa[1] += g.C * t
		}
	}
	return rawMoments(kappa), nil
}

// cumulants converts raw moments m[0..n] (m[0] = 1) to cumulants k[1..n]
// by κ_n = m_n − Σ_{k=1}^{n−1} C(n−1, k−1) κ_k m_{n−k}.
func cumulants(m []float64) []float64 {
	k := make([]float64, len(m))
	for n := 1; n < len(m); n++ {
		s := m[n]
		for j := 1; j < n; j++ {
			s -= binom(n-1, j-1) * k[j] * m[n-j]
		}
		k[n] = s
	}
	return k
}

// rawMoments inverts cumulants: m_n = Σ_{k=1}^{n} C(n−1, k−1) κ_k m_{n−k}.
func rawMoments(k []float64) []float64 {
	m := make([]float64, len(k))
	m[0] = 1
	for n := 1; n < len(k); n++ {
		var s float64
		for j := 1; j <= n; j++ {
			s += binom(n-1, j-1) * k[j] * m[n-j]
		}
		m[n] = s
	}
	return m
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// checkMoments compares a response's raw moments with the oracle's.
func checkMoments(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d moments, want %d", len(got), len(want))
	}
	for j := range want {
		if !(math.Abs(got[j]-want[j]) <= momentRelTol*math.Abs(want[j])) {
			return fmt.Errorf("moment %d = %.17g, oracle %.17g (rel err %.3g > %g)",
				j, got[j], want[j], math.Abs(got[j]-want[j])/math.Abs(want[j]), momentRelTol)
		}
	}
	return nil
}

// checkBounds checks the structure of moment-based CDF bounds: one bound
// per requested level, in order, each a sub-interval of [0, 1]. The values
// come from internal/momentbounds, which has no independent oracle here.
func checkBounds(got []server.BoundPoint, at []float64) error {
	if len(got) != len(at) {
		return fmt.Errorf("got %d bounds, want %d", len(got), len(at))
	}
	for i, b := range got {
		if b.X != at[i] || !(0 <= b.Lower && b.Lower <= b.Upper && b.Upper <= 1) {
			return fmt.Errorf("bound %d at %g = [%g, %g] is not a sub-interval of [0, 1] at %g", i, b.X, b.Lower, b.Upper, at[i])
		}
	}
	return nil
}
