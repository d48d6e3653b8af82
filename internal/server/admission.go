package server

import (
	"fmt"
	"sync"

	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// MemShedError reports a request refused by the memory admission gate: its
// estimated solver working set did not fit the remaining budget. Handlers
// surface it as 503 and count it in mem_shed_total; clients should back
// off and retry, exactly as for a full queue.
type MemShedError struct {
	// Need is the request's estimated working set, Budget the configured
	// limit, InFlight the estimate reserved by admitted solves at the time
	// of the refusal (all bytes).
	Need, Budget, InFlight int64
}

func (e *MemShedError) Error() string {
	return fmt.Sprintf("server: memory budget exceeded (need ~%d bytes, %d of %d in flight)",
		e.Need, e.InFlight, e.Budget)
}

// memGate admits solver work against a byte budget: each admitted request
// reserves its estimated working set until its release runs. A request
// whose estimate exceeds the whole budget is always shed — a budget is a
// statement that such a solve must not run here.
type memGate struct {
	mu       sync.Mutex
	budget   int64
	inFlight int64
}

func newMemGate(budget int64) *memGate {
	return &memGate{budget: budget}
}

// Reserve admits need bytes against the budget, returning the paired
// release (idempotent) and whether admission succeeded.
func (g *memGate) Reserve(need int64) (func(), bool) {
	if need < 0 {
		need = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inFlight+need > g.budget {
		return nil, false
	}
	g.inFlight += need
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inFlight -= need
			g.mu.Unlock()
		})
	}, true
}

// InFlight reports the reserved byte total (the mem_inflight_bytes gauge).
func (g *memGate) InFlight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight
}

// admit reserves an item's estimated working set (see estimateFootprint)
// against the memory budget; the returned release must run when the solve
// finishes. A nil memGate admits everything. A refusal is a
// *MemShedError, counted by countFailure.
func (s *Server) admit(model *spec.Model, compose []*spec.Model, item *BatchItem) (func(), error) {
	if s.memGate == nil {
		return func() {}, nil
	}
	need := estimateFootprint(model, compose, item)
	release, ok := s.memGate.Reserve(need)
	if !ok {
		return nil, &MemShedError{Need: need, Budget: s.opts.MemBudget, InFlight: s.memGate.InFlight()}
	}
	return release, nil
}

// estimateFootprint approximates the peak solver working set of one item
// in bytes, from its spec alone (nothing is built): the matrix in the
// storage format the structure-adaptive engine will pick (with an impulse
// model's impulse matrices), plus the sweep's two packed state buffers
// and one accumulator block per time point, each of the size
// sparse.PackedLayout gives the sweep itself. It is a deliberate
// overestimate-by-a-little — admission control needs an upper bound that
// tracks the real footprint's shape (states, density, bandwidth, format),
// not an exact byte count.
//
// A composed item solves every component as a plain model and folds their
// scalar moments, so it is charged its components' estimates only.
func estimateFootprint(model *spec.Model, compose []*spec.Model, item *BatchItem) int64 {
	if len(compose) > 0 {
		var total int64
		for _, c := range compose {
			if c != nil {
				total += estimateFootprint(c, nil, item)
			}
		}
		return total
	}
	if model == nil || model.States <= 0 {
		return 0
	}
	n, order := model.States, item.Order
	matrix, words := sweepShape(model, order)
	switch item.Method {
	case MethodODE, MethodSimulation:
		// Point solvers keep a handful of length-n vectors per order.
		return matrix + int64(n)*8*int64(order+2)*2
	}
	// Randomization: the two packed state buffers every fused sweep runs
	// on, plus one accumulator block per time point in the same layout.
	return matrix + int64(2+len(item.Times))*int64(words)*8
}

// sweepShape sizes a randomization sweep over model at the given order
// from its spec: the bytes of the matrices it streams — Q' in the storage
// the prepared model builds (sparse.StorageBytes, for the off-diagonal
// transitions plus the diagonal), and an impulse model's order impulse
// matrices in compact CSR — and the float64 words of one packed buffer.
func sweepShape(model *spec.Model, order int) (matrix int64, words int) {
	n := model.States
	bandwidth := 0
	for _, tr := range model.Transitions {
		bandwidth = max(bandwidth, tr.From-tr.To, tr.To-tr.From)
	}
	imp := len(model.Impulses)
	// FormatAuto always resolves.
	format, words, _ := sparse.PackedLayout(sparse.FormatAuto, n, bandwidth, order, imp > 0)
	matrix = sparse.StorageBytes(format, n, len(model.Transitions)+n)
	if imp > 0 {
		matrix += int64(order) * sparse.StorageBytes(sparse.FormatCSR32, n, imp)
	}
	return matrix, words
}
