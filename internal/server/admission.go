package server

import (
	"fmt"
	"sync"

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

// estimateWorkingSet is the admission-time footprint estimate for a single
// solve request. See estimateFootprint for what is counted.
func estimateWorkingSet(req *SolveRequest) int64 {
	return estimateFootprint(req.Model, req.Compose, req.Method, req.Order, 1)
}

// estimateItemWorkingSet is the admission-time estimate for one batch item
// against the batch's shared model.
func estimateItemWorkingSet(model *spec.Model, item *BatchItem) int64 {
	return estimateFootprint(model, nil, item.Method, item.Order, len(item.Times))
}

// estimateFootprint approximates the peak solver working set of one solve
// in bytes, from the request spec alone (nothing is built): the matrix in
// the storage format the structure-adaptive engine will pick (with an
// impulse model's impulse matrices), plus the sweep's packed state and
// per-time-point accumulators. It is a
// deliberate overestimate-by-a-little — admission control needs an upper
// bound that tracks the real footprint's shape (states, density,
// bandwidth, format), not an exact byte count.
//
// A composed request solves every component as a plain model and folds
// their scalar moments, so it is charged its components' estimates only.
func estimateFootprint(model *spec.Model, compose []*spec.Model, method string, order, nTimes int) int64 {
	if len(compose) > 0 {
		var total int64
		for _, c := range compose {
			if c != nil {
				total += estimateFootprint(c, nil, method, order, nTimes)
			}
		}
		return total
	}
	if model == nil || model.States <= 0 {
		return 0
	}
	n := model.States
	nnz := len(model.Transitions) + n // off-diagonals plus the diagonal
	bandwidth := 0
	for _, tr := range model.Transitions {
		if d := tr.From - tr.To; d > bandwidth || -d > bandwidth {
			if d < 0 {
				d = -d
			}
			bandwidth = d
		}
	}

	vec := int64(n) * 8
	var matrix int64
	// Packed state words per state: P = order+1 rounded up to a multiple
	// of 4 on compact CSR, order+1 planes on the band.
	lanes := int64(order+4) &^ 3
	if bandwidth <= 1 && len(model.Impulses) == 0 {
		// The tridiagonal band window: three values per row, no
		// indexes. Only impulse-free such models get it.
		matrix = int64(n) * 3 * 8
		lanes = int64(order + 1)
	} else {
		// Compact CSR: values + 32-bit cols + row pointers, plus an
		// impulse model's order impulse matrices (generic CSR: values,
		// int cols, int row pointers).
		matrix = int64(nnz)*(8+4) + int64(n+1)*4
		if imp := len(model.Impulses); imp > 0 {
			matrix += int64(order) * (int64(imp)*(8+8) + int64(n+1)*8)
		}
	}

	switch method {
	case MethodODE, MethodSimulation:
		// Point solvers keep a handful of length-n vectors per order.
		return matrix + vec*int64(order+2)*2
	}
	// Randomization: the two packed state buffers every fused sweep runs
	// on, plus one accumulator block per time point in the same packed
	// layout.
	return matrix + int64(2+nTimes)*vec*lanes
}
