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
func estimateWorkingSet(req *SolveRequest, sweepWorkers int, matrixFormat string) int64 {
	return estimateFootprint(req.Model, req.Compose, req.Method, req.Order, 1, matrixFormat)
}

// estimateItemWorkingSet is the admission-time estimate for one batch item
// against the batch's shared model.
func estimateItemWorkingSet(model *spec.Model, item *BatchItem, sweepWorkers int, matrixFormat string) int64 {
	return estimateFootprint(model, nil, item.Method, item.Order, len(item.Times), matrixFormat)
}

// estimateFootprint approximates the peak solver working set of one solve
// in bytes, from the request spec alone (nothing is built): the matrix in
// the storage format the structure-adaptive engine will pick, plus the
// sweep's coefficient vectors and per-time-point accumulators. It is a
// deliberate overestimate-by-a-little — admission control needs an upper
// bound that tracks the real footprint's shape (states, density,
// bandwidth, format), not an exact byte count.
//
// A composed request solves every component as a plain model and folds
// their per-state moments over the product states, so it is charged each
// component's estimate plus (nTimes + 1) product-sized moment blocks: one
// result per time point and the fold's intermediate.
func estimateFootprint(model *spec.Model, compose []*spec.Model, method string, order, nTimes int, matrixFormat string) int64 {
	if len(compose) > 0 {
		var total int64
		product := int64(1)
		for _, c := range compose {
			if c == nil {
				continue
			}
			total += estimateFootprint(c, nil, method, order, nTimes, matrixFormat)
			product *= int64(c.States)
		}
		return total + int64(nTimes+1)*product*8*int64(order+1)
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
	band := bandwidth <= 1 && matrixFormat != "csr" && matrixFormat != "csr32"
	switch {
	case band:
		// The tridiagonal window (band, or a 1-phase QBD when forced):
		// three values per row, no indexes. Only such models get it.
		matrix = int64(n) * 3 * 8
	default:
		// Compact CSR: values + 32-bit cols + row pointers. A QBD window
		// is picked only where it streams no more than this.
		matrix = int64(nnz)*(8+4) + int64(n+1)*4
	}

	switch method {
	case MethodODE, MethodSimulation:
		// Point solvers keep a handful of length-n vectors per order.
		return matrix + vec*int64(order+2)*2
	}
	// Randomization: the coefficient blocks plus one accumulator block per
	// time point. A packed sweep — the band window at every order, the
	// interleaved layout of an order-3 CSR32 or QBD sweep — keeps the
	// planar initial-state block and two packed state buffers of
	// (order+1) planes; a planar sweep keeps cur and next blocks.
	perBlock := vec * int64(order+1)
	state := 2 * perBlock
	if band || order == 3 {
		state = 3 * perBlock
	}
	return matrix + state + int64(nTimes)*perBlock
}
