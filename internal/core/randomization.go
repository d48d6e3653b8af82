package core

import (
	"context"
	"fmt"
	"math"

	"somrm/internal/brownian"
	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// DefaultEpsilon is the default truncation accuracy of the randomization
// solver (the paper's large experiment uses 1e-9).
const DefaultEpsilon = 1e-9

// defaultMaxG caps the number of randomization iterations as a safety net;
// the paper's largest experiment needs G = 41,588.
const defaultMaxG = 10_000_000

// Options configures the randomization solver.
type Options struct {
	// Epsilon is the truncation error bound (eq. 11). Defaults to
	// DefaultEpsilon when zero.
	Epsilon float64
	// UniformizationRate overrides q (must be >= max_i |q_ii|). Zero means
	// automatic (q = max exit rate). A composed model (see Compose) still
	// validates it against the product chain's rate, the sum of its
	// factors' rates, but its factors uniformize at their own rates.
	UniformizationRate float64
	// MaxG caps the iteration count. Zero means the package default.
	MaxG int
	// SweepWorkers controls the parallelism of the randomization sweep
	// (the k = 1..G recursion behind every solve):
	//
	//   - 0 (the default) selects automatically: the fused kernel at
	//     every model size — one worker, run inline, below 8,191 states,
	//     a split team of GOMAXPROCS workers at or above it, where the
	//     state count amortizes the team's joins. Every fused run is the
	//     same group schedule: each worker owns one contiguous row
	//     segment and the team joins once per group of TemporalBlock
	//     iterations (every iteration when unblocked);
	//   - > 0 forces the fused kernel with exactly that many workers at
	//     any size (tests and benchmarks use this);
	//   - < 0 selects the serial reference sweep at any size: the
	//     unfused oracle the tests compare the fused kernel against, not
	//     a production mode. It runs through the same sweep entry on
	//     plain planes of its own, streaming compact CSR whatever
	//     MatrixFormat asks for.
	//
	// Every setting produces bitwise identical moments; the knob trades
	// only wall time and goroutines.
	SweepWorkers int
	// MatrixFormat selects the storage representation the fused sweep
	// kernels stream for the uniformized generator: "auto" (the default;
	// the tridiagonal band window for birth-death structure like the
	// paper's models — diagonal and bidiagonal included — compact-index
	// CSR for every other matrix), "csr" (force compact-index CSR; "csr32"
	// is an alias), or "band" (force the band window; matrices wider than
	// tridiagonal get compact CSR). Impulse-reward models always take
	// compact CSR. Any other value is an ErrBadArgument. Every
	// format produces bitwise identical moments; the knob trades only
	// memory traffic. The serial reference oracle (SweepWorkers < 0)
	// ignores it and always streams compact CSR. A composed model applies
	// it to each factor's sweep. Stats.MatrixFormat reports the resolved
	// choice.
	MatrixFormat string
	// TemporalBlock controls temporal blocking of the fused sweep: how
	// many consecutive sweep iterations run over each cache-resident row
	// block before the next block is touched, cutting the sweep's DRAM
	// traffic by roughly that factor on banded models. A team splits
	// the rows into one contiguous segment per worker, each blocked on its
	// own, and fills the few rows at each split after one join per group
	// (split tiling).
	//
	//   - 0 (the default) tunes the depth automatically from the matrix
	//     structure and size: band (tridiagonal) models block at depth 16
	//     once they hold two L1-sized blocks (128 rows up to order 3,
	//     48 at order 12), at every team size, while compact-CSR models
	//     block only once their state outgrows L2, and only on the AVX2
	//     kernel (impulse models run the scalar one and stay unblocked);
	//   - 1 or negative disables blocking;
	//   - >= 2 forces that depth on every model and order, impulse
	//     models included.
	//
	// A composed model applies it to each factor's sweep.
	//
	// Every setting produces bitwise identical moments. With Checkpoint,
	// snapshots land only at blocked-iteration group boundaries; resume
	// tokens remain interchangeable between blocked and unblocked solves.
	// Stats.TemporalBlock reports the depth the solve actually used.
	TemporalBlock int
	// SweepTile overrides the fused kernels' spatial row-tile width (and
	// with it the temporally blocked driver's block width). Zero or
	// negative keeps the built-in default (128 rows for a band sweep up to
	// order 3, narrower blocks at higher orders, 1024 otherwise). It
	// exists so the bitwise tests can force multi-block and multi-group
	// schedules on models of 2 to 40 states, which the default width
	// would cover with one block. Bitwise neutral.
	SweepTile int
	// Checkpoint enables cooperative sweep snapshots: when the context is
	// cancelled mid-sweep the solver captures the iteration state at the
	// barrier where the cancellation is observed and returns it inside an
	// *Interrupted error instead of the bare context error. Off by
	// default — capture copies the full state and accumulator set.
	// Composed models (see Compose) do not capture: a cancelled composed
	// solve returns the bare context error.
	Checkpoint bool
	// Resume, when non-nil, continues the interrupted sweep the checkpoint
	// was captured from instead of starting at iteration 1. The request
	// must describe the same solve (times, order, epsilon, model): the
	// checkpoint's recorded parameters are validated bitwise against the
	// recomputed ones and a mismatch fails with ErrCheckpoint. A resumed
	// solve is bitwise identical to the uninterrupted one. Composed models
	// reject any checkpoint with ErrCheckpoint.
	Resume *Checkpoint
	// CancelStride overrides how many sweep iterations run between context
	// polls (and therefore how fine-grained checkpoint capture is). Zero
	// means the package default (32); tests use 1 to interrupt at every
	// iteration barrier.
	CancelStride int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Epsilon == 0 {
		out.Epsilon = DefaultEpsilon
	}
	if out.MaxG == 0 {
		out.MaxG = defaultMaxG
	}
	return out
}

// Stats reports the work done by one randomization solve, mirroring the
// quantities the paper reports for its large example (q, qt, G, the
// per-iteration cost).
//
// A composed model (see Compose) solves each factor and convolves their
// moments, so its Stats combine the factors' at each time point: Q is
// the sum of the factor rates (the product chain's rate) and QT = Q·t;
// Shift is the sum of the factor shifts; D and G are the factor maxima;
// MatVecs, SweepNS and FlopsPerIteration are sums over the factors; and
// MatrixFormat, SweepKernel and TemporalBlock come from the factor with
// the most states (the first one on ties). ErrorBound is the factors'
// bounds propagated through the fold (see foldBound), and at most
// Epsilon: the largest per-order bound on the absolute error of the
// scalar Moments under the product initial distribution, or of any
// per-state moment under a distribution set by WithInitial. When the
// first fold's bound exceeds Epsilon the factors solve once more at a
// smaller ε; G and ErrorBound then describe that solve, and MatVecs and
// SweepNS count both.
type Stats struct {
	// Q is the uniformization rate, QT the Poisson parameter q*t.
	Q, QT float64
	// D is the scaling constant d = max_i {r_i, sigma_i}/q (after the
	// negative-rate shift, and including impulse magnitudes).
	D float64
	// Shift is the applied drift shift (min_i r_i when negative, else 0).
	Shift float64
	// G is the truncation point of the Poisson sum.
	G int
	// ErrorBound is the value of the provable truncation bound: the
	// eq. 11 term at G plus the head term of the left truncation point
	// (see DESIGN.md), together below Epsilon. It can underflow to zero
	// when the bound is far below Epsilon.
	ErrorBound float64
	// MatVecs counts the sparse matrix-vector products performed by the
	// solve's randomization sweep: iterations StartIteration+1..G of the
	// shared sweep (the whole sweep for a solve resumed from
	// Options.Resume, crediting the interrupted run). A multi-time solve
	// shares one sweep across every time point, so this is the
	// whole-sweep total copied into each Result of the batch: summing it
	// over a time grid's Results overcounts the work by the grid length.
	MatVecs int64
	// StartIteration is the iteration whose state the sweep started
	// from: 0 for a fresh sweep (and a resumed one), k when a warm
	// Prepared resumed from its ladder's snapshot of U(k), skipping
	// iterations 1..k, which accumulate nothing once the Poisson head
	// below the left truncation point is dropped.
	StartIteration int
	// Ladder reports how the solve used its Prepared's state ladder:
	// "hit" when it started from a snapshot, "miss" when it could have
	// skipped at least 48 iterations but no snapshot lay low enough, and
	// "" when the ladder was not consulted (a model's first solve, a
	// solve with less to skip, a resume, an unprepared model).
	Ladder string
	// LadderCaptured reports whether the solve added a snapshot to its
	// Prepared's ladder.
	LadderCaptured bool
	// SweepNS is the wall-clock time of the randomization sweep in
	// nanoseconds — the k = 1..G recursion only, excluding model setup,
	// the truncation-point search and the final scaling/unshift. Like
	// MatVecs it is a whole-sweep figure copied into every Result of a
	// multi-time solve. Serving metrics use it to report solver time
	// separately from queue and serialization time.
	SweepNS int64
	// FlopsPerIteration estimates floating-point multiplications per
	// iteration step, ((m+2) per moment order) * |S|, as in section 7.
	FlopsPerIteration int64
	// MatrixFormat is the storage representation the sweep streamed for
	// the uniformized generator: "band" (impulse-free tridiagonal-window
	// models under auto or "band") or "csr32" (every other model, and
	// every solve on the serial reference oracle, SweepWorkers < 0).
	// Empty for solves that never ran a sweep (t = 0, frozen chains,
	// d = 0).
	MatrixFormat string
	// TemporalBlock is the temporal blocking depth the sweep
	// resolved (see Options.TemporalBlock): 1 for an unblocked sweep, the
	// group depth otherwise. Zero for solves that never ran a sweep.
	TemporalBlock int
	// SweepKernel is the compute kernel the sweep dispatched: "avx2"
	// when the AVX2 assembly kernels served the bulk rows, "scalar" for
	// the pure-Go loops (no hardware support, the SOMRM_NOSIMD
	// environment variable set to anything but "" or "0", the serial
	// reference sweep, or an impulse model, whose recursion has no
	// vector body). The
	// vector kernels replay the scalar loops' exact floating-point
	// operation sequence, so the kernel never changes a result. Empty
	// for solves that never ran a sweep.
	SweepKernel string
}

// Result holds the accumulated-reward moments at one time point.
type Result struct {
	// T is the accumulation time, Order the highest computed moment.
	T     float64
	Order int
	// VectorMoments[j][i] = E[B(t)^j | Z(0)=i] for j = 0..Order. It is
	// nil on a composed result folded from its factors' scalar moments
	// (see Compose); StateMoments builds the vectors for every result.
	VectorMoments [][]float64
	// Moments[j] = E[B(t)^j] under the model's initial distribution.
	Moments []float64
	// Stats describes the solver work.
	Stats Stats

	// states builds the per-state moments of a scalar-folded composed
	// result from the factor vectors it keeps, once.
	states func() [][]float64
}

// StateMoments returns the per-initial-state moment vectors,
// StateMoments()[j][i] = E[B(t)^j | Z(0)=i]: VectorMoments when it is
// set, otherwise (a composed result folded from scalar moments) the fold
// of the factors' vectors over every product state, built on the first
// call and shared by later ones. Stats.ErrorBound bounds the scalar
// Moments of such a result, not these vectors.
func (r *Result) StateMoments() [][]float64 {
	if r.VectorMoments == nil && r.states != nil {
		return r.states()
	}
	return r.VectorMoments
}

// cancelCheckStride is how many randomization iterations run between
// context polls in AccumulatedRewardContext. Polling has a small fixed cost
// (a mutex acquisition for cancelable contexts), so amortize it over a
// batch of iterations; 32 keeps the cancellation latency far below any
// observable request deadline even for tiny models.
const cancelCheckStride = 32

// AccumulatedReward computes the raw moments of the accumulated reward
// B(t) up to the given order with the randomization method of Theorems 3-4.
// Negative drifts are handled with the paper's shift transformation
// (B(t) = B̌(t) + ř·t with ř = min_i r_i), which keeps every matrix in the
// recursion substochastic and every vector non-negative.
func (m *Model) AccumulatedReward(t float64, order int, opts *Options) (*Result, error) {
	return m.AccumulatedRewardContext(context.Background(), t, order, opts)
}

// AccumulatedRewardContext is AccumulatedReward with cooperative
// cancellation: the context is polled every few randomization iterations,
// and the context's error is returned as soon as it is observed. This is
// the hook long-running server solves use to honor per-request deadlines.
//
// It is a single-time-point view of the shared-sweep engine behind
// AccumulatedRewardAt, so solving a time grid in one call and solving its
// points one by one produce bitwise identical moments.
func (m *Model) AccumulatedRewardContext(ctx context.Context, t float64, order int, opts *Options) (*Result, error) {
	results, err := m.AccumulatedRewardAtContext(ctx, []float64{t}, order, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// uniformization holds the time- and order-independent precomputation of
// the randomization solver: the drift shift, the scaling constant d, and
// the scaled matrices Q' (uniformized generator), R', S' of Theorem 3.
// Building one costs a pass over the model plus a copy of the generator;
// reusing it across solves (see Prepared) skips exactly that work.
type uniformization struct {
	q, d, shift float64
	qPrime      *sparse.CSR
	rPrime      []float64
	// sHalf[i] = 0.5 * S'[i], the coefficient the recursion actually
	// applies to cur[j-2]; precomputed so the sweep kernels need one load
	// per entry instead of a multiply. S' itself is not kept.
	sHalf []float64
}

// uniformize computes the shift transformation and the substochastic
// matrices of Theorem 3 for uniformization rate q > 0. When d == 0 (the
// shifted process is identically zero) the matrices are left nil.
func (m *Model) uniformize(q float64) (*uniformization, error) {
	n := m.N()
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
	u := &uniformization{q: q, d: d, shift: shift}
	if d == 0 {
		return u, nil
	}
	qPrime, err := m.gen.Uniformized(q)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	u.qPrime = qPrime
	u.rPrime = make([]float64, n)
	u.sHalf = make([]float64, n)
	for i := 0; i < n; i++ {
		u.rPrime[i] = shifted[i] / (q * d)
		u.sHalf[i] = 0.5 * (m.vars[i] / (q * d * d))
	}
	return u, nil
}

// impulseMatrices builds Q'^(m) = Q∘Y^m / (q d^m) for m = 1..order, where
// (Q∘Y^m)_{ij} = q_ij * y_ij^m on off-diagonal transitions.
func (m *Model) impulseMatrices(q, d float64, order int) ([]*sparse.CSR, error) {
	n := m.N()
	out := make([]*sparse.CSR, order)
	for mm := 1; mm <= order; mm++ {
		b := sparse.NewBuilder(n, n)
		var addErr error
		for i := 0; i < n; i++ {
			m.impulses.Range(i, func(j int, y float64) {
				if addErr != nil || y == 0 {
					return
				}
				rate := m.gen.At(i, j)
				if rate == 0 {
					return
				}
				v := rate / q * math.Pow(y/d, float64(mm))
				addErr = b.Add(i, j, v)
			})
		}
		if addErr != nil {
			return nil, fmt.Errorf("core: impulse matrix: %w", addErr)
		}
		out[mm-1] = b.Build()
	}
	return out, nil
}

// truncationPoint finds the smallest G meeting the Theorem 4 error bound,
// entirely in log space so (qt)^n n! cannot overflow, maximized over every
// requested moment order j <= order so all returned moments honor eps.
//
// Note on eq. (11): the paper states the tail sum starting at G+n+1, but
// the index substitution k' = k-n in its own proof (Appendix A) yields a
// tail starting at G-n+1, i.e.
//
//	xi(G) <= 2 d^n n! (qt)^n P(X > G-n) < eps.
//
// The difference is immaterial for the paper's large example (qt = 40,000,
// n = 3) but matters for small qt with high orders; we implement the
// provably correct form (empirically validated in the test suite).
//
// With impulses the coefficient bound weakens to U^(n)(k) <= (2k)^n/n!
// (the recursion's generating polynomial e^x + x + x^2/2 <= e^{2x}), giving
//
//	(4d)^n (qt)^n P(X > G-n) < eps for G >= 2n.
//
// tab serves every tail probability the search probes, for lambda = qt:
// the caller then reads the sweep weights PMF(0..G) from the same table
// (see poissonTable), so each pmf value of the solve is evaluated once.
//
// The bound only falls as g grows, so the smallest passing g is found by
// bracketing and bisection. The bracket opens at truncationGuess's
// estimate and widens outward in doubling steps until it holds one
// missing and one passing g (or reaches minG or maxG); the bisection
// then runs between the last missing and the first passing probe. A
// probe stops at the first order whose term reaches eps, trying first
// the order that decided the last miss, so only passing probes evaluate
// every order — and the bound returned is the full maximum at G, the
// value a linear scan would report. G above maxG is an ErrBadArgument:
// the search fails exactly when g = maxG itself misses eps.
func truncationPoint(tab *poisson.Table, order int, d, qt, eps float64, impulses bool, maxG int) (int, float64, error) {
	logEps := math.Log(eps)
	// The order-dependent factors do not depend on g: evaluate them once.
	var buf [16]float64
	logFactor := boundFactors(buf[:0], order, d, qt, impulses)
	minG := 0
	if impulses {
		minG = 2 * order
	}
	maxG = max(maxG, minG)

	g, dom := truncationGuess(logFactor, logEps, qt)
	// miss < pass bracket the answer: miss is the largest g known to miss
	// eps (minG-1 when none is), pass the smallest known to meet it
	// (-1 while none is), passLog the log bound at pass.
	miss, pass := minG-1, -1
	var passLog float64
	probe := func(g int) {
		bd := logFactor[dom] + tab.LogTailProb(g-dom)
		if bd >= logEps {
			miss = g
			return
		}
		worst := bd
		for j, f := range logFactor {
			if j == dom {
				continue
			}
			b := f + tab.LogTailProb(g-j)
			if b >= logEps {
				miss, dom = g, j
				return
			}
			worst = max(worst, b)
		}
		pass, passLog = g, worst
	}
	probe(min(max(g, minG), maxG))
	for step := 1; ; step *= 2 {
		if pass < 0 {
			if miss == maxG {
				return 0, 0, fmt.Errorf("%w: truncation point exceeds MaxG=%d (qt=%g, order=%d)", ErrBadArgument, maxG, qt, order)
			}
			probe(min(miss+step, maxG))
		} else if miss < minG && pass > minG {
			probe(max(pass-step, minG))
		} else {
			break
		}
	}
	for pass-miss > 1 {
		probe(miss + (pass-miss)/2)
	}
	return pass, math.Exp(passLog), nil
}

// boundFactors appends to buf the order-dependent log factors f_j of the
// eq. 11 bound, j = 0..order: ln(2 d^j j! (qt)^j), or j·ln(4 d qt) with
// impulses. Both truncation searches weight a Poisson tail by them.
func boundFactors(buf []float64, order int, d, qt float64, impulses bool) []float64 {
	for j := 0; j <= order; j++ {
		var f float64
		if impulses {
			f = float64(j) * (math.Log(4*d) + math.Log(qt))
		} else {
			lg, _ := math.Lgamma(float64(j) + 1)
			f = math.Ln2 + float64(j)*math.Log(d) + lg + float64(j)*math.Log(qt)
		}
		buf = append(buf, f)
	}
	return buf
}

// leftPoint finds the left truncation point L of a solve whose right
// truncation point g has bound right: the largest L such that dropping
// the Poisson head k < L costs every moment order j at most
//
//	f_j + ln P(X < L−j) < ln(budget),  budget = min(eps·2⁻²⁰, eps − right),
//
// with the factors f_j of eq. 11 (see boundFactors and DESIGN.md, which
// derives the head term from the same coefficient bound on U^(j)(k)), so
// right + left stays below eps. It returns L and the largest head term
// at L, the left part of the solve's error bound; (0, 0) when no head
// can be dropped. The derivation holds while L − order ≥ 2 (without
// impulses) or ≥ max(2, 2·order·(order−1)) (with them) and L ≤ qt, so
// only such L are candidates.
//
// The terms only grow with L, so the search mirrors truncationPoint's:
// it brackets the largest passing L from leftGuess's estimate, widening
// in doubling steps, and bisects; a probe stops at the first order whose
// term reaches the budget, trying first the order that decided the last
// miss. Every probe reads tab's stored head sums (LogHeadProb), so the
// search allocates nothing, and L depends only on (qt, order, d, eps,
// right) — never on the probe sequence.
func leftPoint(tab *poisson.Table, order int, d, qt, eps, right float64, impulses bool, g int) (int, float64) {
	budget := min(eps*0x1p-20, eps-right)
	if !(budget > 0) {
		return 0, 0
	}
	minL := order + 2
	if impulses {
		minL = order + max(2, 2*order*(order-1))
	}
	maxL := min(g, int(qt))
	if maxL < minL {
		return 0, 0
	}
	logBudget := math.Log(budget)
	var buf [16]float64
	logFactor := boundFactors(buf[:0], order, d, qt, impulses)
	l, dom := leftGuess(logFactor, logBudget, qt)
	// pass < miss bracket the answer: pass is the largest L known to meet
	// the budget (minL-1 while none is), miss the smallest known to miss
	// it (maxL+1 while none is), passLog the log of the worst term at pass.
	pass, miss := minL-1, maxL+1
	passLog := math.Inf(-1)
	probe := func(l int) {
		bd := logFactor[dom] + tab.LogHeadProb(l-dom)
		if bd >= logBudget {
			miss = l
			return
		}
		worst := bd
		for j, f := range logFactor {
			if j == dom {
				continue
			}
			b := f + tab.LogHeadProb(l-j)
			if b >= logBudget {
				miss, dom = l, j
				return
			}
			worst = max(worst, b)
		}
		pass, passLog = l, worst
	}
	// The head can often not be dropped at all (small qt): settle that
	// with one probe at minL, then bracket from the guess as if minL
	// were unknown, since the guess lies far closer to the answer.
	if probe(minL); pass < minL {
		return 0, 0
	}
	pass = minL - 1
	probe(min(max(l, minL), maxL))
	for step := 1; ; step *= 2 {
		if miss > maxL && pass < maxL {
			probe(min(pass+step, maxL))
		} else if pass < minL && miss > minL {
			probe(max(miss-step, minL))
		} else {
			break
		}
	}
	for miss-pass > 1 {
		probe(pass + (miss-pass)/2)
	}
	if pass < minL {
		return 0, 0
	}
	return pass, math.Exp(passLog)
}

// leftGuess estimates the left truncation point for leftPoint's factors
// and log budget, with the order expected to decide it; the mirror of
// truncationGuess. Term j at L is f_j + ln P(X < L−j), and below the mean
// ln P(X < m) falls by about ln(qt/m) per unit step down, so the order
// with the largest f_j + j·ln(m/qt) decides. For that order the guess
// solves ln P(X <= k) = ln(budget) − f_j for k = L−j−1 with Stirling's
// pmf and the geometric head sum,
//
//	-ln P(X <= k) ≈ qt - k + k·ln(k/qt) + ½·ln(2πk) + ln(1 - k/qt),
//
// by three Newton steps from the Chernoff bound on the lower quantile.
// Like truncationGuess it is only the search's starting point.
func leftGuess(logFactor []float64, logBudget, qt float64) (l, dom int) {
	tau := max(logFactor[len(logFactor)-1]-logBudget, 0)
	k := max(qt-math.Sqrt(2*qt*tau), 1)
	slope := math.Log(k / qt)
	for j, f := range logFactor {
		if f+float64(j)*slope > logFactor[dom]+float64(dom)*slope {
			dom = j
		}
	}
	tau = logFactor[dom] - logBudget
	k = max(qt-math.Sqrt(2*qt*max(tau, 0)), 1)
	for range 3 {
		r := math.Log(k / qt)
		head := math.Log1p(-k / qt)
		if k < 1 || r >= 0 || math.IsInf(head, 0) || math.IsNaN(head) {
			break
		}
		k = min(k-(qt-k+k*r+0.5*math.Log(2*math.Pi*k)+head-tau)/r, qt-1)
	}
	if !(k >= 0) {
		return 0, dom
	}
	return int(k) + 1 + dom, dom
}

// truncationGuess estimates the truncation point for truncationPoint's
// per-order log factors f_j and returns it with the order expected to
// decide it. Term j at g is f_j + ln P(X > g-j), X ~ Poisson(qt). Above
// the mean, ln P(X > k) falls by about ln(k/qt) per unit of k, so near the
// answer the order with the largest f_j + j·ln(k/qt) decides; for that
// order the guess solves ln P(X >= m) = ln(eps) - f_j for m = k+1 with
// Stirling's pmf and the geometric tail sum,
//
//	-ln P(X >= m) ≈ qt - m + m·ln(m/qt) + ½·ln(2πm) + ln(1 - qt/(m+1)),
//
// by three Newton steps from Bernstein's bound on the quantile. The guess
// is only a starting point: the search widens its bracket from it in
// either direction, so an estimate off by a few iterations costs a few
// probes and never changes the result.
func truncationGuess(logFactor []float64, logEps, qt float64) (g, dom int) {
	quantile := func(tau float64) float64 {
		return qt + tau/3 + math.Sqrt(tau*tau/9+2*qt*tau)
	}
	slope := math.Log(quantile(max(logFactor[len(logFactor)-1]-logEps, 0)) / qt)
	for j, f := range logFactor {
		if f+float64(j)*slope > logFactor[dom]+float64(dom)*slope {
			dom = j
		}
	}
	tau := logFactor[dom] - logEps
	if tau <= 0 {
		return 0, dom
	}
	m := quantile(tau)
	for range 3 {
		r := math.Log(m / qt)
		tail := math.Log1p(-qt / (m + 1))
		if r <= 0 || math.IsInf(tail, 0) || math.IsNaN(tail) {
			break
		}
		m = max(m-(qt-m+m*r+0.5*math.Log(2*math.Pi*m)+tail-tau)/r, qt+1)
	}
	return int(math.Ceil(m)) - 1 + dom, dom
}

// pmfKmax returns the last pmf index a solve's Poisson(qt) table has room
// for: a little past the truncation point a solve of this order
// typically reaches at ε = 1e-9 — the mean plus 9.5 standard deviations
// at order 3 and 17.5 at order 12, a few iterations more at small qt — so
// the search and the sweep weights share one allocation. The table grows
// once when the weights need more, and probes beyond its capacity
// evaluate their pmf directly.
func pmfKmax(qt float64, order int) int {
	return int(qt+(9+0.8*float64(order))*math.Sqrt(qt)) + 2*order + 4
}

// poissonTable points tab at Poisson(qt) with fresh pmf storage up to
// pmfKmax(qt, order).
func poissonTable(tab *poisson.Table, qt float64, order int) {
	tab.Reset(qt, pmfKmax(qt, order))
}

// trivialMoments returns the moment vectors of B == 0: V^0 = 1, rest 0.
func trivialMoments(n, order int) [][]float64 {
	vm := make([][]float64, order+1)
	for j := range vm {
		vm[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		vm[0][i] = 1
	}
	return vm
}

// frozenMoments handles the no-transition chain: per state the accumulated
// reward is exactly Normal(r_i t, sigma_i^2 t).
func frozenMoments(m *Model, t float64, order int) ([][]float64, error) {
	n := m.N()
	vm := make([][]float64, order+1)
	for j := range vm {
		vm[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			v, err := brownian.NormalRawMoment(j, m.rates[i]*t, m.vars[i]*t)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			vm[j][i] = v
		}
	}
	return vm, nil
}

// unshift converts moments of the shifted process B̌ to moments of
// B = B̌ + shift*t via the binomial theorem. A zero shift is a no-op.
func unshift(vm [][]float64, shift, t float64, order int) [][]float64 {
	if shift == 0 {
		return vm
	}
	n := len(vm[0])
	c := shift * t
	pow := powTable(c, order)
	out := make([][]float64, order+1)
	// Binomial coefficients row by row.
	binom := make([]float64, order+1)
	for j := 0; j <= order; j++ {
		// binom holds C(j, l) for l = 0..j built incrementally.
		binom[j] = 1
		for l := j - 1; l > 0; l-- {
			binom[l] += binom[l-1]
		}
		out[j] = make([]float64, n)
		for l := 0; l <= j; l++ {
			coef := binom[l] * pow[j-l]
			if coef == 0 {
				continue
			}
			src := vm[l]
			dst := out[j]
			for i := 0; i < n; i++ {
				dst[i] += coef * src[i]
			}
		}
	}
	return out
}

// powTable returns p[m] = math.Pow(c, float64(m)) for m = 0..n, bit for
// bit, replacing the O(n²) Pow calls the unshift double loop used to
// make. It maintains the powers incrementally with the square-and-multiply
// ladder math.Pow itself uses for integer exponents, sharing the c^(2^i)
// squares across entries; for normal (non-over/underflowing)
// intermediates that ladder performs the identical float64 operation
// sequence as Pow, so the results match exactly. When |c|^n could leave
// the comfortably-normal range — where Pow's frexp exponent tracking
// would round differently than raw multiplication — every entry falls
// back to math.Pow itself.
func powTable(c float64, n int) []float64 {
	p := make([]float64, n+1)
	p[0] = 1
	if n == 0 {
		return p
	}
	// |log2(c^n)| < 1000 keeps every square and partial product strictly
	// inside the normal range (the extremes are bounded by |c|^n and 1).
	// c = 0 and non-finite c fail the test and take the fallback.
	if e := math.Log2(math.Abs(c)); !(math.Abs(e)*float64(n) < 1000) {
		for m := 1; m <= n; m++ {
			p[m] = math.Pow(c, float64(m))
		}
		return p
	}
	squares := make([]float64, 0, 8) // squares[i] = c^(2^i)
	for m := 1; m <= n; m++ {
		a := 1.0
		for yi, bit := m, 0; yi != 0; yi, bit = yi>>1, bit+1 {
			if bit == len(squares) {
				if bit == 0 {
					squares = append(squares, c)
				} else {
					squares = append(squares, squares[bit-1]*squares[bit-1])
				}
			}
			if yi&1 == 1 {
				a *= squares[bit]
			}
		}
		p[m] = a
	}
	return p
}

// finish computes the pi-weighted scalar moments from the vector moments.
func (r *Result) finish(pi []float64) {
	r.Moments = make([]float64, r.Order+1)
	for j := 0; j <= r.Order; j++ {
		var s float64
		for i, p := range pi {
			s += p * r.VectorMoments[j][i]
		}
		r.Moments[j] = s
	}
}
