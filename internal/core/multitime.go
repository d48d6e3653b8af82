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
	if err := checkSolve(ctx, times, order, cfg); err != nil {
		return nil, err
	}
	p, err := m.prepare(cfg.UniformizationRate)
	if err != nil {
		return nil, err
	}
	return p.solve(ctx, times, order, cfg)
}

// checkSolve is the entry check of every solve, made before any matrix
// work: a live context and valid arguments.
func checkSolve(ctx context.Context, times []float64, order int, cfg Options) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return validateSolveArgs(times, order, cfg)
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
// uniformization. It is the single implementation behind every solve
// entry, all of which reach it through Prepared.solve: the arguments are
// checked and the q == 0 (frozen chain) case handled. ws is the solve's
// scratch workspace, and lad the Prepared's state ladder the sweep may
// start from and capture into.
func (m *Model) solveAt(ctx context.Context, times []float64, order int, cfg Options, u *uniformization, imp []*sparse.CSR, ws *solveWorkspace, lad *ladder) ([]*Result, error) {
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
	// the first/last k whose pmf is non-zero in float64 — and further to
	// the left truncation point (see leftPoint), below which the head of
	// the distribution adds at most ε·2⁻²⁰ to any moment: the sweep
	// skips that head's accumulation, and a warm Prepared skips its
	// iterations too (see ladder).
	type timePlan struct {
		t     float64
		g     int
		bound float64
	}
	plans := make([]timePlan, len(times))
	sweepPlans := make([]sparse.SweepPlan, len(times))
	gMax := 0
	activePlans := 0
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
		l, left := leftPoint(tab, order, d, q*t, cfg.Epsilon, bound, imp != nil, g)
		plans[idx] = timePlan{t: t, g: g, bound: bound + left}
		sweepPlans[idx] = sparse.SweepPlan{First: max(first, l), Last: last, Weight: w}
		activePlans++
		if g > gMax {
			gMax = g
		}
	}

	// The k = 1..G recursion runs on the sweep engine's fused kernel at
	// every model size: one worker inline below 8,191 states, a split team
	// of GOMAXPROCS workers at or above it (or the team size the caller
	// forced). Only SweepWorkers < 0 selects the serial reference kernel
	// (0 workers), the oracle the tests compare against; it streams the
	// compact CSR whatever the requested format. Every choice produces
	// bitwise identical moments, as does every matrix storage format.
	workers := sparse.PlanWorkers(cfg.SweepWorkers, n)
	format, err := sparse.ParseMatrixFormat(cfg.MatrixFormat)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	sweep, err := sparse.NewSweepWithFormat(u.qPrime, u.rPrime, u.sHalf, imp, order, workers, format)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sweep.SetSweepTile(cfg.SweepTile)
	sweep.SetTemporalBlock(cfg.TemporalBlock)

	// A warm Prepared starts from its ladder's largest snapshot at or
	// below the last iteration no plan accumulates (start), and may
	// capture one there; a resume token bypasses the ladder.
	var use ladderUse
	if cfg.Resume == nil && activePlans > 0 {
		start := gMax
		for idx := range sweepPlans {
			if plans[idx].t != 0 {
				start = min(start, sweepPlans[idx].First-1)
			}
		}
		use = lad.plan(start, order, n)
	}

	// First iteration of the sweep: 1 for a fresh solve, Completed+1 when
	// resuming a checkpoint, k+1 when starting from a ladder snapshot at
	// k. A resume restores the captured state and accumulators verbatim
	// (the k = 0 contributions are already inside them), and a snapshot
	// lies below every plan's first accumulating iteration, so the
	// remaining iterations perform the exact floating-point work of the
	// uninterrupted fresh run.
	first := 1
	cp := cfg.Resume
	if cp != nil {
		if err := cp.matches(order, n, gMax, q, d, shift, cfg.Epsilon, times); err != nil {
			return nil, err
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
			}
		}
		first = cp.Completed + 1
	} else if use.from.state != nil {
		first = use.from.k + 1
	}

	// Per-solve scratch comes from one arena (pooled by Prepared): two
	// state vectors, each time point's accumulator block, the packed
	// kernel state, and — when a shift is active, so unshift rebuilds the
	// output vectors anyway — the intermediate scaled moments. Only
	// buffers that never escape into Results are carved here; everything
	// needing zeros is cleared explicitly (the arena arrives dirty). The
	// accumulator blocks are in the sweep's packed layout, written and read
	// only through PackAcc and UnpackAcc. The sweep reads cur once, to seed
	// its packed state, and never writes it: a fresh state's moments
	// 1..order share one zero vector, and a seeded one is read straight
	// from the checkpoint or the ladder snapshot.
	accWords := sweep.AccWords()
	vmWords := 0
	if shift != 0 {
		vmWords = (order + 1) * n
	}
	arena := ws.ensure(2*n + activePlans*accWords + vmWords + sweep.ScratchWords())
	carve := func(k int) []float64 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	// vec holds each plan's k = 0 term while the blocks are packed, then
	// U^(0)(0) = 1 of a fresh state.
	vec, zeros := carve(n), carve(n)
	clear(zeros)
	zeroAcc := make([][]float64, order+1)
	for j := range zeroAcc {
		zeroAcc[j] = zeros
	}
	term0 := append([][]float64{vec}, zeroAcc[1:]...)
	for idx := range sweepPlans {
		p := &sweepPlans[idx]
		if plans[idx].t == 0 {
			continue
		}
		src := zeroAcc
		switch {
		case cp != nil:
			src = cp.Acc[idx]
		case use.from.state == nil && p.First == 0 && p.Weight[0] > 0:
			// The k = 0 contribution of a fresh solve: U^(0)(0) = 1,
			// higher orders 0.
			for i := range vec {
				vec[i] = p.Weight[0]
			}
			src = term0
		}
		p.Acc = carve(accWords)
		sweep.PackAcc(p.Acc, src)
	}
	var vmBuf []float64
	if vmWords > 0 {
		vmBuf = carve(vmWords)
	}
	sweep.SetScratch(carve(sweep.ScratchWords()))
	cur := term0 // a fresh state: U^(0)(0) = 1, higher orders 0
	switch {
	case cp != nil:
		cur = cp.State
	case use.from.state != nil:
		cur = use.from.state[:order+1] // a snapshot may carry higher orders
	default:
		for i := range vec {
			vec[i] = 1
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
				Format: string(sweep.Format()), Workers: max(workers, 1),
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
					acc[j] = make([]float64, n)
				}
				sweep.UnpackAcc(acc, sweepPlans[idx].Acc)
				cp.Acc[idx] = acc
			}
			captured = cp
		})
	}
	var kept *bool // set only when capturing, so other solves allocate nothing
	if use.capture {
		// Capture U(start) into one fresh allocation at the forced group
		// boundary after iteration start; the ladder publishes it only
		// once it is fully written.
		kept = new(bool)
		sweep.SetBarrierHook(use.start, func(k int, export func([][]float64)) {
			buf := make([]float64, (order+1)*n)
			state := make([][]float64, order+1)
			for j := range state {
				state[j] = buf[j*n : (j+1)*n : (j+1)*n]
			}
			export(state)
			*kept = lad.add(k, state, n)
		})
	}
	sweepStart := time.Now()
	matVecs, err := sweep.RunFrom(ctx, first, gMax, cur, sweepPlans, stride)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			if captured != nil {
				return nil, &Interrupted{Checkpoint: captured, Err: cerr}
			}
			return nil, cerr
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	startIter := first - 1
	if ran := gMax - first + 1; cfg.Resume != nil && ran > 0 {
		// A resumed solve reports the whole sweep's work: credit the
		// iterations the interrupted run already performed (the
		// per-iteration product count divides the resumed total exactly).
		matVecs = matVecs / int64(ran) * int64(gMax)
		startIter = 0
	}
	sweepNS := time.Since(sweepStart).Nanoseconds()
	ladderOutcome := ""
	if use.consulted {
		ladderOutcome = "miss"
		if use.from.state != nil {
			ladderOutcome = "hit"
		}
	}

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
		for j := range vm {
			if vmBuf != nil {
				// A non-zero shift means unshift builds fresh output
				// vectors, so the scaled moments are scratch the arena can
				// hold (reused across time points). With shift == 0 they
				// escape into the Result and must be freshly allocated.
				vm[j] = vmBuf[j*n : (j+1)*n : (j+1)*n]
			} else {
				vm[j] = make([]float64, n)
			}
		}
		sweep.UnpackAcc(vm, sweepPlans[idx].Acc)
		scale := 1.0
		for j, v := range vm {
			if j > 0 {
				scale *= float64(j) * d
			}
			if math.IsInf(scale, 0) {
				return nil, fmt.Errorf("%w: scale j!*d^j at order %d", ErrOverflow, j)
			}
			for i := range v {
				v[i] *= scale
				if math.IsInf(v[i], 0) || math.IsNaN(v[i]) {
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
			StartIteration:    startIter,
			Ladder:            ladderOutcome,
			LadderCaptured:    kept != nil && *kept,
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
