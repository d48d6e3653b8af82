package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"somrm/internal/core"
	"somrm/internal/momentbounds"
	"somrm/internal/spec"
)

// maxBatchTimes bounds the time grid of one batch item.
const maxBatchTimes = 4096

// BatchItem is one solve of a batch: a whole time grid against the shared
// model. Randomization items solve the grid in one shared coefficient-vector
// sweep (core.Model.AccumulatedRewardAt); ode/simulation items solve point
// by point.
type BatchItem struct {
	// Times is the time grid (non-negative; duplicates allowed; solved as
	// given).
	Times []float64 `json:"times"`
	// Order is the highest moment order.
	Order int `json:"order"`
	// Epsilon is the randomization truncation accuracy (default 1e-9).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Method selects the solver: randomization (default), ode, simulation.
	Method string `json:"method,omitempty"`
	// Sim and ODE carry method-specific parameters.
	Sim *SimParams `json:"sim,omitempty"`
	ODE *ODEParams `json:"ode,omitempty"`
	// BoundsAt lists reward levels at which to return moment-based CDF
	// bounds for every time point of the grid.
	BoundsAt []float64 `json:"bounds_at,omitempty"`
	// TimeoutMS caps this item's solve time; it overrides the batch-level
	// timeout and is clamped to the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/solve/batch: one model, many solves.
type BatchRequest struct {
	// Model is the JSON model spec shared by every item.
	Model *spec.Model `json:"model"`
	// Items are the solves to fan out across the worker pool.
	Items []BatchItem `json:"items"`
	// TimeoutMS is the default per-item timeout (clamped to the server
	// default; items may set their own).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	specHash string
}

// BatchPoint is the solution at one time point of an item's grid.
type BatchPoint struct {
	T float64 `json:"t"`
	// Moments[j] = E[B(t)^j] under the model's initial distribution.
	Moments []float64 `json:"moments"`
	// Stats is present for the randomization method.
	Stats *SolverStats `json:"stats,omitempty"`
	// StdErr is present for the simulation method.
	StdErr []float64 `json:"std_err,omitempty"`
	// Bounds echoes the item's BoundsAt with CDF bounds, when requested.
	Bounds []BoundPoint `json:"bounds,omitempty"`
}

// BatchItemResult reports one item's outcome. Items fail independently:
// a timeout or queue rejection of one grid leaves the others' results
// intact (partial-result responses).
type BatchItemResult struct {
	// Status is "ok" or "error".
	Status string `json:"status"`
	// Error carries the failure diagnostic when Status is "error".
	Error string `json:"error,omitempty"`
	// Points holds one entry per requested time, in request order.
	Points []BatchPoint `json:"points,omitempty"`
	// ElapsedMS is the item's wall time including queueing.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BatchResponse is the body of a successful POST /v1/solve/batch.
type BatchResponse struct {
	// Items holds one result per request item, in request order.
	Items []BatchItemResult `json:"items"`
	// PreparedCached reports that the model came from the prepared-model
	// cache (parsing, validation, and matrix scaling were skipped).
	PreparedCached bool `json:"prepared_cached"`
	// ElapsedMS is the whole batch's server-side wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// statuses of a BatchItemResult.
const (
	BatchStatusOK    = "ok"
	BatchStatusError = "error"
	// BatchStatusShedMemory marks an item refused by the memory admission
	// gate (the batch-item analogue of a single solve's typed 503): the
	// item's estimated working set did not fit the remaining budget. The
	// rest of the batch is unaffected — sheds are per item, never a
	// whole-batch failure.
	BatchStatusShedMemory = "shed_memory"
)

// normalize applies defaults and validates the batch envelope and every
// item. It must run before hashing or dispatch.
func (r *BatchRequest) normalize(maxOrder int) error {
	if r.Model == nil {
		return badRequestf("missing model")
	}
	if len(r.Items) == 0 {
		return badRequestf("empty batch")
	}
	if r.TimeoutMS < 0 {
		return badRequestf("timeout_ms %d < 0", r.TimeoutMS)
	}
	for i := range r.Items {
		if err := r.Items[i].normalize(maxOrder); err != nil {
			return badRequestf("item %d: %v", i, err)
		}
	}
	return nil
}

func (it *BatchItem) normalize(maxOrder int) error {
	if len(it.Times) == 0 {
		return badRequestf("empty time grid")
	}
	if len(it.Times) > maxBatchTimes {
		return badRequestf("%d time points exceed the limit of %d", len(it.Times), maxBatchTimes)
	}
	for _, t := range it.Times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return badRequestf("bad t=%g", t)
		}
	}
	// Reuse the single-solve validation for the shared parameters.
	probe := &SolveRequest{
		Model: &spec.Model{}, T: 0, Order: it.Order,
		Epsilon: it.Epsilon, Method: it.Method,
		BoundsAt: it.BoundsAt, Sim: it.Sim, ODE: it.ODE,
		TimeoutMS: it.TimeoutMS,
	}
	if err := probe.normalize(maxOrder); err != nil {
		return err
	}
	it.Epsilon = probe.Epsilon
	it.Method = probe.Method
	it.Sim = probe.Sim
	it.ODE = probe.ODE
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.BatchRequests.Add(1)
	if s.draining.Load() {
		s.metrics.Rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown.Error())
		return
	}

	req, err := decodeBatchRequest(readBody(w, r, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.normalize(s.opts.MaxOrder); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A batch that cannot fit in the queue even when it is empty would
	// enqueue some items and reject the rest; reject the whole batch with
	// 503 before enqueueing anything instead.
	if len(req.Items) > s.opts.QueueSize {
		s.metrics.Rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf(
			"%v: batch of %d items exceeds the queue capacity of %d",
			ErrQueueFull, len(req.Items), s.opts.QueueSize))
		return
	}
	h, err := req.Model.Hash()
	if err != nil {
		writeError(w, http.StatusBadRequest, "unhashable model: "+err.Error())
		return
	}
	req.specHash = hex.EncodeToString(h[:])
	s.classifyRoute(req.specHash)

	started := time.Now()
	// Resolve the prepared model once for the whole batch (single-flight
	// against concurrent batches and single solves of the same model).
	prep, hit, err := s.preparedFor(req.specHash, func() (*core.Prepared, error) { return buildPrepared(req.Model) }, req.Model)
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	s.metrics.BatchItems.Observe(len(req.Items))

	results := make([]BatchItemResult, len(req.Items))
	var wg sync.WaitGroup
	for i := range req.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panic in the item runner itself (outside the pool, which
			// has its own recovery) must not kill the process: convert it
			// to a sanitized per-item error like any other failure.
			defer func() {
				if v := recover(); v != nil {
					s.metrics.Panics.Add(1)
					s.metrics.Failures.Add(1)
					results[i] = BatchItemResult{
						Status: BatchStatusError,
						Error:  (&PanicError{Value: v}).Error(),
					}
				}
			}()
			results[i] = s.solveBatchItem(r.Context(), prep, req, i)
		}(i)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, &BatchResponse{
		Items:          results,
		PreparedCached: hit,
		ElapsedMS:      msSince(started),
	})
}

// solveBatchItem runs one item through the worker pool with its own
// timeout and maps the outcome to a per-item status.
func (s *Server) solveBatchItem(ctx context.Context, prep *core.Prepared, req *BatchRequest, i int) BatchItemResult {
	item := &req.Items[i]
	started := time.Now()

	timeout := s.opts.DefaultTimeout
	ms := req.TimeoutMS
	if item.TimeoutMS > 0 {
		ms = item.TimeoutMS
	}
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	itemCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Memory admission mirrors the single-solve gate, per item: an item
	// whose estimated working set does not fit is shed with a typed
	// per-item status while the rest of the batch proceeds.
	if s.memGate != nil {
		need := estimateItemWorkingSet(req.Model, item)
		release, ok := s.memGate.Reserve(need)
		if !ok {
			s.metrics.MemShed.Add(1)
			s.metrics.Rejected.Add(1)
			shed := &MemShedError{Need: need, Budget: s.opts.MemBudget, InFlight: s.memGate.InFlight()}
			return BatchItemResult{
				Status: BatchStatusShedMemory, Error: shed.Error(), ElapsedMS: msSince(started),
			}
		}
		defer release()
	}

	var points []BatchPoint
	var solveErr error
	// Batch items enqueue with the configured reserve: when the queue is
	// nearly saturated they are shed (503 per item) while single solves
	// may still use the remaining headroom.
	poolErr := s.pool.DoReserved(itemCtx, func(ctx context.Context) {
		s.metrics.Solves.Add(1)
		points, solveErr = s.solveItem(ctx, prep, item)
	}, s.opts.BatchQueueReserve)
	err := poolErr
	if err == nil {
		err = solveErr
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrShed):
			s.metrics.BatchShed.Add(1)
			s.metrics.Rejected.Add(1)
		case errors.Is(err, ErrQueueFull):
			s.metrics.ShedQueueFull.Add(1)
			s.metrics.Rejected.Add(1)
		case errors.Is(err, ErrShuttingDown):
			s.metrics.Rejected.Add(1)
		case errors.As(err, new(*QueueDeadlineError)):
			s.metrics.ShedDeadline.Add(1)
			s.metrics.Failures.Add(1)
		default:
			s.metrics.Failures.Add(1)
		}
		return BatchItemResult{
			Status: BatchStatusError, Error: err.Error(), ElapsedMS: msSince(started),
		}
	}
	s.metrics.ObserveLatency(time.Since(started))
	return BatchItemResult{
		Status: BatchStatusOK, Points: points, ElapsedMS: msSince(started),
	}
}

// runBatchItem executes one normalized batch item against the prepared
// model. Randomization solves the whole grid in one shared sweep; ode and
// simulation iterate the grid point by point, checking the deadline between
// points.
func (s *Server) runBatchItem(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
	model := prep.Model()
	points := make([]BatchPoint, 0, len(item.Times))
	switch item.Method {
	case MethodRandomization:
		s.metrics.SweepPoints.Observe(len(item.Times))
		results, err := prep.AccumulatedRewardAtContext(ctx, item.Times, item.Order, &core.Options{
			Epsilon: item.Epsilon, SweepWorkers: s.opts.SweepWorkers,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			points = append(points, BatchPoint{T: res.T, Moments: res.Moments, Stats: newSolverStats(res.Stats)})
		}
		// SweepNS is a whole-sweep figure copied into every result; observe
		// it once per item, not once per grid point.
		if len(results) > 0 && results[0].Stats.SweepNS > 0 {
			s.metrics.ObserveSweep(time.Duration(results[0].Stats.SweepNS))
			s.metrics.SweepFormats.Observe(results[0].Stats.MatrixFormat)
			s.metrics.ObserveSweepBlocking(results[0].Stats.TemporalBlock)
			s.metrics.SweepKernels.Observe(results[0].Stats.SweepKernel)
			s.metrics.ObserveLadder(results[0].Stats.Ladder, results[0].Stats.LadderCaptured)
		}
	case MethodODE, MethodSimulation:
		for _, t := range item.Times {
			moments, stdErr, err := solvePoint(ctx, model, item.Method, item.ODE, item.Sim, t, item.Order)
			if err != nil {
				return nil, err
			}
			points = append(points, BatchPoint{T: t, Moments: moments, StdErr: stdErr})
		}
	}
	if len(item.BoundsAt) > 0 {
		for pi := range points {
			est, err := momentbounds.New(points[pi].Moments)
			if err != nil {
				return nil, badRequestf("distribution bounds at t=%g: %v", points[pi].T, err)
			}
			for _, x := range item.BoundsAt {
				b, err := est.CDFBounds(x)
				if err != nil {
					return nil, badRequestf("distribution bounds at t=%g, x=%g: %v", points[pi].T, x, err)
				}
				points[pi].Bounds = append(points[pi].Bounds, BoundPoint{X: x, Lower: b.Lower, Upper: b.Upper})
			}
		}
	}
	return points, nil
}
