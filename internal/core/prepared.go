package core

import (
	"context"
	"fmt"
	"sync"

	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// Prepared bundles a Model with the reusable precomputation of the
// randomization solver: the drift shift, the scaling constant d, and the
// uniformized matrices Q', R', S' of Theorem 3. Solving through a Prepared
// skips that setup, which is what lets a server amortize model preparation
// across repeated solve and batch requests against the same model.
//
// Impulse matrices additionally depend on the moment order; they are built
// lazily for the highest order seen so far and cached. A Prepared is safe
// for concurrent use.
type Prepared struct {
	m     *Model
	u     *uniformization // nil when the chain has no transitions (q == 0)
	parts []*Prepared     // one per factor of a composed model (see Compose)

	mu  sync.Mutex
	imp []*sparse.CSR // impulse matrices for orders 1..len(imp), grown on demand

	// ws pools the per-solve scratch arenas (sweep state vectors,
	// accumulators, packed kernel state — tens of MB at the paper's
	// sizes — and the Poisson tables), so repeated server solves against
	// the same model stop allocating them. Only non-escaping scratch
	// lives in the arena; see solveAt. The pool is a separate allocation: the runtime keeps every
	// used pool reachable for up to two GC cycles, and an embedded pool
	// would keep the whole Prepared — its matrices included — alive that
	// long after a cache dropped it.
	ws *sync.Pool
}

// solveWorkspace is one solve's scratch arena. A workspace is used by at
// most one solve at a time; Prepared hands them out from a sync.Pool.
type solveWorkspace struct {
	buf []float64
	// pmf backs the Poisson tables of a solve's time points (see
	// solveAt), which also share tab's head-sum storage.
	pmf []float64
	tab poisson.Table
}

// ensure returns an arena of exactly the given word count, growing the
// backing buffer when needed. Contents are unspecified — callers clear
// what must start at zero.
func (w *solveWorkspace) ensure(words int) []float64 {
	if cap(w.buf) < words {
		w.buf = make([]float64, words)
	}
	return w.buf[:words]
}

// ensurePMF is ensure for the pmf tables' buffer.
func (w *solveWorkspace) ensurePMF(words int) []float64 {
	if cap(w.pmf) < words {
		w.pmf = make([]float64, words)
	}
	return w.pmf[:words]
}

func (p *Prepared) getWorkspace() *solveWorkspace {
	if v := p.ws.Get(); v != nil {
		return v.(*solveWorkspace)
	}
	return &solveWorkspace{}
}

func (p *Prepared) putWorkspace(w *solveWorkspace) { p.ws.Put(w) }

// Prepare validates nothing new — the model is already validated — but
// performs the solver's model-only setup once so subsequent solves skip it.
// A composed model prepares each of its factors instead.
func Prepare(m *Model) (*Prepared, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadModel)
	}
	if m.parts != nil {
		parts := make([]*Prepared, len(m.parts))
		for k, part := range m.parts {
			pp, err := Prepare(part)
			if err != nil {
				return nil, err
			}
			parts[k] = pp
		}
		return &Prepared{m: m, parts: parts, ws: new(sync.Pool)}, nil
	}
	q := m.gen.MaxExitRate()
	if q == 0 {
		return &Prepared{m: m, ws: new(sync.Pool)}, nil
	}
	u, err := m.uniformize(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{m: m, u: u, ws: new(sync.Pool)}, nil
}

// Model returns the underlying model (shared; treat as read-only).
func (p *Prepared) Model() *Model { return p.m }

// impulseMatrices returns the cached scaled impulse matrices for orders
// 1..order, building and growing the cache under the lock when a higher
// order is requested than any seen before.
func (p *Prepared) impulseMatrices(order int) ([]*sparse.CSR, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.imp) < order {
		imp, err := p.m.impulseMatrices(p.u.q, p.u.d, order)
		if err != nil {
			return nil, err
		}
		p.imp = imp
	}
	return p.imp[:order], nil
}

// AccumulatedRewardAt is Model.AccumulatedRewardAt against the prepared
// matrices.
func (p *Prepared) AccumulatedRewardAt(times []float64, order int, opts *Options) ([]*Result, error) {
	return p.AccumulatedRewardAtContext(context.Background(), times, order, opts)
}

// AccumulatedRewardAtContext is Model.AccumulatedRewardAtContext against
// the prepared matrices: identical results, minus the per-call setup. A
// custom Options.UniformizationRate different from the prepared rate falls
// back to the model path (the prepared matrices assume the automatic rate).
func (p *Prepared) AccumulatedRewardAtContext(ctx context.Context, times []float64, order int, opts *Options) ([]*Result, error) {
	cfg := opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.parts != nil {
		return p.solveComposed(ctx, times, order, cfg)
	}
	if cfg.UniformizationRate != 0 && (p.u == nil || cfg.UniformizationRate != p.u.q) {
		return p.m.AccumulatedRewardAtContext(ctx, times, order, opts)
	}
	if err := validateSolveArgs(times, order, cfg); err != nil {
		return nil, err
	}
	if p.u == nil {
		return p.m.frozenResults(times, order)
	}
	var imp []*sparse.CSR
	if p.m.impulses != nil && order >= 1 && p.u.d > 0 {
		var err error
		imp, err = p.impulseMatrices(order)
		if err != nil {
			return nil, err
		}
	}
	ws := p.getWorkspace()
	defer p.putWorkspace(ws)
	return p.m.solveAt(ctx, times, order, cfg, p.u, imp, ws)
}

// AccumulatedReward is Model.AccumulatedReward against the prepared
// matrices.
func (p *Prepared) AccumulatedReward(t float64, order int, opts *Options) (*Result, error) {
	return p.AccumulatedRewardContext(context.Background(), t, order, opts)
}

// AccumulatedRewardContext is Model.AccumulatedRewardContext against the
// prepared matrices; results are bitwise identical to the unprepared path.
func (p *Prepared) AccumulatedRewardContext(ctx context.Context, t float64, order int, opts *Options) (*Result, error) {
	results, err := p.AccumulatedRewardAtContext(ctx, []float64{t}, order, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
