package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// AccumulatedRewardAt computes the moments of B(t) for several time points
// in a single randomization sweep. The coefficient vectors U^(n)(k) of
// Theorem 3 do not depend on t — only the Poisson weights do — so one pass
// over k = 1..G(max t) serves every time point, amortizing the dominant
// matrix-vector work across the whole series (the Figure 3/4 curves of the
// paper are 20-point series over the same model).
//
// Times must be non-negative; they are solved as given (duplicates
// allowed). The error bound of eq. (11) is enforced at every time point:
// G is the maximum of the per-time truncation points, and each time point
// uses its own Poisson weights.
//
// This is the solver engine: AccumulatedReward(t, ...) is exactly
// AccumulatedRewardAt([t], ...)[0], so batch results are bitwise identical
// to per-point solves.
func (m *Model) AccumulatedRewardAt(times []float64, order int, opts *Options) ([]*Result, error) {
	return m.AccumulatedRewardAtContext(context.Background(), times, order, opts)
}

// AccumulatedRewardAtContext is AccumulatedRewardAt with cooperative
// cancellation: the context is polled every few randomization iterations of
// the shared sweep, and the context's error is returned as soon as it is
// observed.
func (m *Model) AccumulatedRewardAtContext(ctx context.Context, times []float64, order int, opts *Options) ([]*Result, error) {
	cfg := opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.parts != nil {
		p, err := Prepare(m)
		if err != nil {
			return nil, err
		}
		return p.solveComposed(ctx, times, order, cfg)
	}
	if err := validateSolveArgs(times, order, cfg); err != nil {
		return nil, err
	}

	q := m.gen.MaxExitRate()
	if cfg.UniformizationRate != 0 {
		if cfg.UniformizationRate < q {
			return nil, fmt.Errorf("%w: uniformization rate %g below max exit rate %g", ErrBadArgument, cfg.UniformizationRate, q)
		}
		q = cfg.UniformizationRate
	}
	if q == 0 {
		return m.frozenResults(times, order)
	}
	u, err := m.uniformize(q)
	if err != nil {
		return nil, err
	}
	var imp []*sparse.CSR
	if m.impulses != nil && order >= 1 && u.d > 0 {
		imp, err = m.impulseMatrices(q, u.d, order)
		if err != nil {
			return nil, err
		}
	}
	return m.solveAt(ctx, times, order, cfg, u, imp, nil)
}

// validateSolveArgs checks the user-facing solver arguments shared by every
// randomization entry point.
func validateSolveArgs(times []float64, order int, cfg Options) error {
	if len(times) == 0 {
		return fmt.Errorf("%w: empty time list", ErrBadArgument)
	}
	for _, t := range times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("%w: time %g", ErrBadArgument, t)
		}
	}
	if order < 0 {
		return fmt.Errorf("%w: moment order %d", ErrBadArgument, order)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return fmt.Errorf("%w: epsilon %g not in (0,1)", ErrBadArgument, cfg.Epsilon)
	}
	if cfg.MaxG < 1 {
		return fmt.Errorf("%w: MaxG %d", ErrBadArgument, cfg.MaxG)
	}
	if _, err := sparse.ParseMatrixFormat(cfg.MatrixFormat); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	return nil
}

// frozenResults handles the no-transition chain (q == 0): per state the
// accumulated reward is exactly Normal(r_i t, sigma_i^2 t) at every time.
func (m *Model) frozenResults(times []float64, order int) ([]*Result, error) {
	results := make([]*Result, len(times))
	for idx, t := range times {
		res := &Result{T: t, Order: order}
		if t == 0 {
			res.VectorMoments = trivialMoments(m.N(), order)
		} else {
			vm, err := frozenMoments(m, t, order)
			if err != nil {
				return nil, err
			}
			res.VectorMoments = vm
		}
		res.finish(m.initial)
		results[idx] = res
	}
	return results, nil
}

// solveAt runs the shared randomization sweep over a prepared
// uniformization. It is the single implementation behind AccumulatedReward,
// AccumulatedRewardAt and Prepared: callers have validated the arguments
// and handled the q == 0 (frozen chain) case.
func (m *Model) solveAt(ctx context.Context, times []float64, order int, cfg Options, u *uniformization, imp []*sparse.CSR, ws *solveWorkspace) ([]*Result, error) {
	n := m.N()
	q, d, shift := u.q, u.d, u.shift

	if d == 0 {
		// All shifted drifts, variances and impulses are zero: B̌ == 0.
		results := make([]*Result, len(times))
		for idx, t := range times {
			res := &Result{T: t, Order: order}
			if t == 0 {
				res.VectorMoments = trivialMoments(n, order)
			} else {
				res.VectorMoments = unshift(trivialMoments(n, order), shift, t, order)
				res.Stats = Stats{Q: q, QT: q * t, Shift: shift}
			}
			res.finish(m.initial)
			results[idx] = res
		}
		return results, nil
	}

	// Per-time truncation points and Poisson weights. Each plan's
	// accumulation is clipped to the effective window of its weights —
	// the first/last k whose pmf is non-zero in float64 — so large-qt
	// grids skip the underflowed head of the distribution entirely
	// instead of testing ~0.9·qt zero weights per iteration.
	type timePlan struct {
		t     float64
		g     int
		bound float64
	}
	plans := make([]timePlan, len(times))
	sweepPlans := make([]sparse.SweepPlan, len(times))
	gMax := 0
	activePlans := 0
	if ws == nil {
		ws = &solveWorkspace{}
	}
	// One pmf table per time point serves the truncation search and
	// becomes the sweep weights. The tables' storage is carved from the
	// workspace, which outlives the sweep's reads of the weights, and
	// they share the workspace table's head-sum storage.
	pmfWords := 0
	for _, t := range times {
		if t != 0 {
			pmfWords += poisson.TableWords(pmfKmax(q*t, order))
		}
	}
	pmfArena := ws.ensurePMF(pmfWords)
	tab := &ws.tab
	for idx, t := range times {
		if t == 0 {
			plans[idx] = timePlan{t: 0}
			sweepPlans[idx] = sparse.SweepPlan{First: 0, Last: -1}
			continue
		}
		k := poisson.TableWords(pmfKmax(q*t, order))
		tab.ResetInto(q*t, pmfArena[:0:k])
		pmfArena = pmfArena[k:]
		g, bound, err := truncationPoint(tab, order, d, q*t, cfg.Epsilon, imp != nil, cfg.MaxG)
		if err != nil {
			return nil, err
		}
		w, first, last := tab.Window(g)
		plans[idx] = timePlan{t: t, g: g, bound: bound}
		sweepPlans[idx] = sparse.SweepPlan{First: first, Last: last, Weight: w}
		activePlans++
		if g > gMax {
			gMax = g
		}
	}

	// The k = 1..G recursion runs on the sweep engine's fused kernel at
	// every model size: inline as a 1-worker team below 8,191 states, a
	// persistent GOMAXPROCS worker team at or above it (or the team size
	// the caller forced). Only SweepWorkers < 0 selects the serial
	// reference kernel, the oracle the tests compare against. Both produce
	// bitwise identical moments, as does every matrix storage format; the
	// reference path streams the generic CSR, so it builds its sweep with
	// the reference-only csr64 storage label and skips the derived
	// conversions.
	workers := sparse.PlanWorkers(cfg.SweepWorkers, n)
	teamSize := workers
	if teamSize < 1 {
		teamSize = 1
	}
	format, err := sparse.ParseMatrixFormat(cfg.MatrixFormat)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	if workers == 0 {
		format = sparse.FormatCSR64
	}
	sweep, err := sparse.NewSweepWithFormat(u.qPrime, u.rPrime, u.sHalf, imp, order, teamSize, format)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sweep.SetSweepTile(cfg.SweepTile)
	sweep.SetTemporalBlock(cfg.TemporalBlock)
	sweep.SetNoSIMD(cfg.NoSIMD)

	// Per-solve scratch comes from one arena (pooled by Prepared): the
	// sweep state vectors, the per-time accumulators, the packed kernel
	// state, and — when a shift is active, so unshift rebuilds the output
	// vectors anyway — the intermediate scaled moments. Only buffers that
	// never escape into Results are carved here; everything needing zeros
	// is cleared explicitly (the arena arrives dirty). Each time point's
	// accumulators start the sweep's plane stride apart, the layout the
	// band kernel fuses its accumulation into. A packed run reads cur
	// once, to seed its planes, and writes neither cur nor next: next
	// aliases cur, a fresh state's moments 1..order share one zero
	// vector, and a resumed one is read straight from the checkpoint.
	ps := sweep.PlaneStride()
	packed := sweep.ScratchWords() > 0
	var vecWords int
	switch {
	case !packed:
		vecWords = 2 * (order + 1) * n
	case cfg.Resume == nil:
		vecWords = 2 * n
	}
	accWords := activePlans * (order*ps + n)
	vmWords := 0
	if shift != 0 {
		vmWords = (order + 1) * n
	}
	arena := ws.ensure(vecWords + accWords + vmWords + sweep.ScratchWords())
	carve := func(k int) []float64 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	cur := make([][]float64, order+1)
	next := cur
	switch {
	case !packed:
		next = make([][]float64, order+1)
		for j := 0; j <= order; j++ {
			cur[j] = carve(n)
			clear(cur[j])
			next[j] = carve(n) // fully overwritten by the first iteration
		}
	case cfg.Resume == nil:
		cur[0] = carve(n) // set to 1 below
		zeros := carve(n)
		clear(zeros)
		for j := 1; j <= order; j++ {
			cur[j] = zeros
		}
	}
	for idx := range sweepPlans {
		if plans[idx].t == 0 {
			continue
		}
		acc := make([][]float64, order+1)
		buf := carve(order*ps + n)
		for j := 0; j <= order; j++ {
			acc[j] = buf[j*ps : j*ps+n : j*ps+n]
			clear(acc[j])
		}
		sweepPlans[idx].Acc = acc
	}
	var vmBuf []float64
	if vmWords > 0 {
		vmBuf = carve(vmWords)
	}
	sweep.SetScratch(carve(sweep.ScratchWords()))

	// First iteration of the sweep: 1 for a fresh solve, Completed+1 when
	// resuming a checkpoint. A resume restores the captured state and
	// accumulators verbatim (the k = 0 contributions are already inside
	// them), so the remaining iterations perform the exact floating-point
	// work of the uninterrupted run.
	first := 1
	if cp := cfg.Resume; cp != nil {
		if err := cp.matches(order, n, gMax, q, d, shift, cfg.Epsilon, times); err != nil {
			return nil, err
		}
		for j := 0; j <= order; j++ {
			if packed {
				cur[j] = cp.State[j]
			} else {
				copy(cur[j], cp.State[j])
			}
		}
		for idx := range sweepPlans {
			if plans[idx].t == 0 {
				continue
			}
			if idx >= len(cp.Acc) || cp.Acc[idx] == nil || len(cp.Acc[idx]) != order+1 {
				return nil, fmt.Errorf("%w: missing accumulator for time point %d", ErrCheckpoint, idx)
			}
			for j := 0; j <= order; j++ {
				if len(cp.Acc[idx][j]) != n {
					return nil, fmt.Errorf("%w: accumulator %d/%d has %d entries for %d states", ErrCheckpoint, idx, j, len(cp.Acc[idx][j]), n)
				}
				copy(sweepPlans[idx].Acc[j], cp.Acc[idx][j])
			}
		}
		first = cp.Completed + 1
	} else {
		for i := 0; i < n; i++ {
			cur[0][i] = 1
		}
		// k = 0 contributions: U^(0)(0) = 1, higher orders 0.
		for idx := range sweepPlans {
			p := &sweepPlans[idx]
			if plans[idx].t == 0 || p.First > 0 {
				continue
			}
			if w0 := p.Weight[0]; w0 > 0 {
				for i := 0; i < n; i++ {
					p.Acc[0][i] = w0
				}
			}
		}
	}

	stride := cfg.CancelStride
	if stride <= 0 {
		stride = cancelCheckStride
	}
	var captured *Checkpoint
	if cfg.Checkpoint {
		sweep.SetInterruptHook(func(completed int, export func([][]float64)) {
			cp := &Checkpoint{
				Order: order, N: n, Completed: completed, GMax: gMax,
				Q: q, D: d, Shift: shift, Epsilon: cfg.Epsilon,
				Times:  append([]float64(nil), times...),
				Format: string(sweep.Format()), Workers: teamSize,
			}
			cp.State = make([][]float64, order+1)
			for j := range cp.State {
				cp.State[j] = make([]float64, n)
			}
			export(cp.State)
			cp.Acc = make([][][]float64, len(times))
			for idx := range sweepPlans {
				if plans[idx].t == 0 {
					continue
				}
				acc := make([][]float64, order+1)
				for j := range acc {
					acc[j] = append([]float64(nil), sweepPlans[idx].Acc[j]...)
				}
				cp.Acc[idx] = acc
			}
			captured = cp
		})
	}
	sweepStart := time.Now()
	var matVecs int64
	if workers == 0 {
		matVecs, err = sweep.RunReferenceFrom(ctx, first, gMax, cur, next, sweepPlans, stride)
	} else {
		matVecs, err = sweep.RunFrom(ctx, first, gMax, cur, next, sweepPlans, stride)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			if captured != nil {
				return nil, &Interrupted{Checkpoint: captured, Err: cerr}
			}
			return nil, cerr
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	if ran := gMax - first + 1; first > 1 && ran > 0 {
		// Stats report whole-sweep work: credit the iterations the
		// interrupted run already performed (the per-iteration product
		// count divides the resumed total exactly).
		matVecs = matVecs / int64(ran) * int64(gMax)
	}
	sweepNS := time.Since(sweepStart).Nanoseconds()

	// Scale, unshift, aggregate per time point.
	results := make([]*Result, len(times))
	for idx, plan := range plans {
		res := &Result{T: plan.t, Order: order}
		if plan.t == 0 {
			res.VectorMoments = trivialMoments(n, order)
			res.finish(m.initial)
			results[idx] = res
			continue
		}
		vm := make([][]float64, order+1)
		scale := 1.0
		for j := 0; j <= order; j++ {
			if j > 0 {
				scale *= float64(j) * d
			}
			if math.IsInf(scale, 0) {
				return nil, fmt.Errorf("%w: scale j!*d^j at order %d", ErrOverflow, j)
			}
			if vmBuf != nil {
				// A non-zero shift means unshift builds fresh output
				// vectors, so the scaled moments are scratch the arena can
				// hold (reused across time points). With shift == 0 they
				// escape into the Result and must be freshly allocated.
				vm[j] = vmBuf[j*n : (j+1)*n : (j+1)*n]
			} else {
				vm[j] = make([]float64, n)
			}
			acc := sweepPlans[idx].Acc[j]
			for i := 0; i < n; i++ {
				vm[j][i] = scale * acc[i]
				if math.IsInf(vm[j][i], 0) || math.IsNaN(vm[j][i]) {
					return nil, fmt.Errorf("%w: t=%g moment order %d", ErrOverflow, plan.t, j)
				}
			}
		}
		res.VectorMoments = unshift(vm, shift, plan.t, order)
		res.Stats = Stats{
			Q: q, QT: q * plan.t, D: d, Shift: shift,
			G: plan.g, ErrorBound: plan.bound,
			MatVecs:           matVecs,
			SweepNS:           sweepNS,
			FlopsPerIteration: (int64(u.qPrime.NNZ()) + int64(2*n)) * int64(order+1),
			MatrixFormat:      string(sweep.Format()),
			TemporalBlock:     sweep.TemporalBlock(),
			SweepKernel:       sweep.Kernel(),
		}
		res.finish(m.initial)
		results[idx] = res
	}
	return results, nil
}
