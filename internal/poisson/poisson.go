// Package poisson computes Poisson probabilities and tail sums in a
// numerically stable way. Randomization (uniformization) methods weight
// matrix-vector iterates by Poisson(qt) probabilities; the paper's large
// example uses qt = 40,000, where the naive recursion starting from
// e^{-qt} underflows immediately. All probabilities here are computed in
// log space via the log-gamma function.
package poisson

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadRate is returned for negative or non-finite rates.
var ErrBadRate = errors.New("poisson: rate must be finite and non-negative")

// LogPMF returns ln P(X = k) for X ~ Poisson(lambda). LogPMF(0, 0) = 0.
// It returns -Inf for k < 0.
func LogPMF(k int, lambda float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return -lambda + float64(k)*math.Log(lambda) - lg
}

// PMF returns P(X = k) for X ~ Poisson(lambda), evaluated via log space so
// it degrades gracefully (to 0) instead of producing NaN for extreme inputs.
func PMF(k int, lambda float64) float64 {
	return math.Exp(LogPMF(k, lambda))
}

// CDF returns P(X <= k).
func CDF(k int, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	return 1 - TailProb(k, lambda)
}

// TailProb returns P(X > g) for X ~ Poisson(lambda).
//
// For g below the mean it accumulates the head probabilities and
// complements; for g at or above the mean it sums the rapidly decreasing
// tail directly. Both paths use compensated summation. It is Table's
// TailProb on an untabulated table: every pmf value is computed directly.
func TailProb(g int, lambda float64) float64 {
	t := Table{lambda: lambda}
	return t.TailProb(g)
}

// LogTailProb returns ln P(X > g). For tails that underflow float64 it
// falls back to a log-sum-exp over the leading terms plus a geometric
// remainder bound, so the randomization error-bound search (eq. 11 of the
// paper) can run entirely in log space. It is Table's LogTailProb on an
// untabulated table.
func LogTailProb(g int, lambda float64) float64 {
	t := Table{lambda: lambda}
	return t.LogTailProb(g)
}

// PMFWindow returns prob[k] = PMF(k, lambda) for k = 0..g together with
// the first and last indices whose probability is non-zero in float64 —
// the effective support of the truncated distribution after underflow.
// For large lambda the head of the distribution underflows to exactly
// zero (lambda = 40,000 zeroes every k below roughly 36,000), so a
// consumer weighting a k-indexed recursion can skip those iterations'
// accumulation entirely. This is the same head/tail clipping Window
// performs by probability mass, restated for a caller-chosen truncation
// point g: here nothing representable is dropped, the window is exactly
// where the pmf is non-zero. If every entry is zero, first = 0 and
// last = -1. It is Table's Window on a fresh table.
func PMFWindow(lambda float64, g int) (prob []float64, first, last int) {
	var t Table
	t.Reset(lambda, g)
	return t.Window(g)
}

// Table serves the Poisson(lambda) queries of one randomization solve
// from one pmf table: the eq. 11 truncation-point search probes
// LogTailProb at many g (and at g-j for every moment order j), and the
// sweep then weights iteration k by PMF(k). A tabulating table (see
// Reset) evaluates each PMF(k) once and keeps the compensated running sum
// of p_0..p_k as it grows, so a head query is one lookup instead of a
// g-term sum; the far-tail probes beyond its capacity compute their
// starting pmf directly. The zero Table with only lambda set tabulates
// nothing — TailProb, LogTailProb and PMFWindow are that case — and
// every query returns the same bits either way: a tabulated entry is the
// identical PMF(k, lambda) evaluation, and the head state after p_k is
// the identical compensated sequence, in the same order.
type Table struct {
	lambda float64
	// pmf[k] = PMF(k, lambda); it grows on demand up to cap(pmf).
	pmf []float64
	// sums[k] is the compensated head sum after adding pmf[0..k], and
	// comp the correction term after the last of them; kept only by a
	// tabulating table (pmf != nil).
	sums []float64
	comp float64
}

// Reset points the table at Poisson(lambda), tabulating on demand with
// room for PMF(0..kmax) before it has to grow. The pmf storage is always
// fresh — callers may keep the slice an earlier Window returned, as the
// solver keeps its sweep weights — while the head-sum storage is reused,
// so the time points of one solve share it.
func (t *Table) Reset(lambda float64, kmax int) {
	t.ResetInto(lambda, make([]float64, 0, TableWords(kmax)))
}

// ResetInto is Reset with caller-lent pmf storage: the table tabulates
// into pmf's backing array, up to cap(pmf) entries before it has to grow
// (pmf's contents are ignored), so a solver can carve the tables of all
// its time points from one pooled buffer. The storage belongs to the
// table until the caller stops reading the table and every slice Window
// returned from it.
func (t *Table) ResetInto(lambda float64, pmf []float64) {
	t.lambda = lambda
	t.pmf = pmf[:0:min(cap(pmf), maxTabulated+1)]
	t.sums = t.sums[:0]
	t.comp = 0
}

// TableWords returns the pmf storage, in float64 words, of a table with
// room for PMF(0..kmax): kmax+1, capped at the tabulation limit.
func TableWords(kmax int) int { return min(max(kmax, 0), maxTabulated) + 1 }

// PMF returns PMF(k, lambda), from the table when k is within its
// capacity (extending it as needed), directly otherwise.
func (t *Table) PMF(k int) float64 {
	if k >= 0 && k < cap(t.pmf) {
		for j := len(t.pmf); j <= k; j++ {
			t.pmf = append(t.pmf, PMF(j, t.lambda))
		}
		return t.pmf[k]
	}
	return PMF(k, t.lambda)
}

// maxTabulated caps a table's pmf entries and head sums, so an absurd
// rate costs bounded memory: queries past the cap compute directly, as
// the untabulated table does. The paper's largest example (qt = 40,000)
// stays far below it.
const maxTabulated = 1 << 20

// headSum returns the compensated sum p_0 + ... + p_g, resuming from the
// last stored head state and, on a tabulating table, storing the new
// ones (head queries stop below the mean, so at most ceil(lambda) of
// them).
func (t *Table) headSum(g int) float64 {
	if g < len(t.sums) {
		return t.sums[g]
	}
	limit := 0
	if t.pmf != nil {
		limit = int(math.Min(math.Ceil(t.lambda), maxTabulated))
		if cap(t.sums) == 0 {
			t.sums = make([]float64, 0, limit)
		}
	}
	k := 0
	var sum, comp float64
	if n := len(t.sums); n > 0 {
		k, sum, comp = n, t.sums[n-1], t.comp
	}
	for ; k <= g; k++ {
		y := t.PMF(k) - comp
		s := sum + y
		comp = (s - sum) - y
		sum = s
		if k == len(t.sums) && k < limit {
			t.sums = append(t.sums, sum)
			t.comp = comp
		}
	}
	return sum
}

// TailProb returns P(X > g); see the package-level TailProb.
func (t *Table) TailProb(g int) float64 {
	if g < 0 {
		return 1
	}
	if t.lambda == 0 {
		return 0
	}
	if float64(g) < t.lambda {
		// Head sum: p_0 + ... + p_g, then complement.
		sum := t.headSum(g)
		if sum >= 1 {
			return 0
		}
		return 1 - sum
	}
	// Tail sum starting at g+1. Terms decay at least geometrically with
	// ratio lambda/(g+2) < 1.
	lambda := t.lambda
	p := t.PMF(g + 1)
	var sum, comp float64
	k := g + 1
	for p > 0 {
		y := p - comp
		s := sum + y
		comp = (s - sum) - y
		sum = s
		if p < sum*1e-18 {
			break
		}
		k++
		p *= lambda / float64(k)
	}
	return sum
}

// LogTailProb returns ln P(X > g); see the package-level LogTailProb.
func (t *Table) LogTailProb(g int) float64 {
	if g < 0 {
		return 0
	}
	if t.lambda == 0 {
		return math.Inf(-1)
	}
	if p := t.TailProb(g); p > 0 {
		return math.Log(p)
	}
	// Underflowed: work in log space. ln(sum_{k>g} p_k) with
	// p_{k+1}/p_k = lambda/(k+1) and ratio < 1 once k >= lambda.
	lead := LogPMF(g+1, t.lambda)
	ratio := t.lambda / float64(g+2)
	if ratio >= 1 {
		// Should not happen for underflowing tails, but stay safe.
		return lead
	}
	// sum <= p_{g+1} / (1 - ratio); also sum >= p_{g+1}. Use the
	// geometric upper bound, which is what the error bound needs
	// (a conservative G).
	return lead - math.Log1p(-ratio)
}

// LogHeadProb returns ln P(X < m), the head mass a left-truncated sum
// drops when it starts at m. It reads the compensated head sum
// p_0 + ... + p_{m-1} the table stores as it grows below the mean (see
// TailProb), so a search probing many m sums each pmf value once. Where
// that sum leaves the comfortably normal range (deep in the head, below
// the mean) it returns the geometric upper bound
// ln p_{m-1} - ln(1 - (m-1)/lambda) instead — the head terms fall by at
// least (m-1)/lambda per step down — so a bound built on it stays
// conservative.
func (t *Table) LogHeadProb(m int) float64 {
	if m <= 0 {
		return math.Inf(-1)
	}
	if t.lambda == 0 {
		return 0
	}
	k := m - 1
	if s := t.headSum(k); s >= 0x1p-1000 {
		return math.Log(s)
	}
	return LogPMF(k, t.lambda) - math.Log1p(-float64(k)/t.lambda)
}

// Window returns the tabulated PMF(0..g) and its non-zero window, as
// PMFWindow does; the slice aliases the table's storage, which a later
// Reset never reuses (ResetInto reuses only what its caller lends). A g
// beyond the capacity grows the table once, into fresh storage.
func (t *Table) Window(g int) (prob []float64, first, last int) {
	if g >= cap(t.pmf) {
		t.pmf = append(make([]float64, 0, g+1), t.pmf...)
	}
	t.PMF(g)
	prob = t.pmf[: g+1 : g+1]
	last = -1
	for k, p := range prob {
		if p > 0 {
			if last < 0 {
				first = k
			}
			last = k
		}
	}
	return prob, first, last
}

// Weights holds a truncated window of Poisson probabilities.
type Weights struct {
	// Left is the first index of the window; Prob[i] = P(X = Left+i).
	Left int
	Prob []float64
	// MassDropped is the probability mass outside the window.
	MassDropped float64
}

// Window computes a probability window covering all k with cumulative mass
// at least 1-eps: the left truncation drops at most eps/2 head mass and the
// right truncation at most eps/2 tail mass. It is the weight source for the
// uniformized transient solution of the CTMC.
func Window(lambda, eps float64) (*Weights, error) {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return nil, fmt.Errorf("%w: lambda=%v", ErrBadRate, lambda)
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("poisson: eps must be in (0,1), got %g", eps)
	}
	if lambda == 0 {
		return &Weights{Left: 0, Prob: []float64{1}}, nil
	}

	mode := int(lambda)
	// Right edge: smallest g >= mode with P(X > g) <= eps/2.
	right := mode
	step := 1 + int(math.Sqrt(lambda))
	for TailProb(right, lambda) > eps/2 {
		right += step
	}
	// Left edge: largest l with P(X < l) <= eps/2, found by scanning down
	// from the mode. For small lambda the left edge is 0.
	left := 0
	if lambda > 25 {
		lo := mode - int(10*math.Sqrt(lambda)+10)
		if lo < 0 {
			lo = 0
		}
		var head, comp float64
		for k := lo; k < mode; k++ {
			p := PMF(k, lambda)
			y := p - comp
			t := head + y
			comp = (t - head) - y
			head = t
			if head > eps/2 {
				left = k // keep from k on: P(X < k) <= eps/2 held before adding p_k
				break
			}
		}
		if left == 0 && lo > 0 {
			left = lo
		}
	}

	w := &Weights{Left: left, Prob: make([]float64, right-left+1)}
	var kept, comp float64
	for k := left; k <= right; k++ {
		p := PMF(k, lambda)
		w.Prob[k-left] = p
		y := p - comp
		t := kept + y
		comp = (t - kept) - y
		kept = t
	}
	w.MassDropped = 1 - kept
	if w.MassDropped < 0 {
		w.MassDropped = 0
	}
	return w, nil
}
