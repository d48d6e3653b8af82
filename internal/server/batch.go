package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"somrm/internal/core"
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

	// checkpoint enables mid-sweep snapshot capture on cancellation, so a
	// deadline-exceeded solve returns a resumable partial status; resume
	// is the checkpoint a resume token named. Only a /v1/solve request's
	// item (see SolveRequest.item) sets them: batch items never
	// checkpoint.
	checkpoint bool
	resume     *core.Checkpoint
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
	// A cold build is batch work on the pool, under the batch timeout.
	ctx, cancel := s.withTimeout(r.Context(), req.TimeoutMS)
	prep, hit, err := s.prepare(ctx, req.specHash, func() (*core.Prepared, error) { return buildPrepared(req.Model) }, req.Model, s.opts.BatchQueueReserve)
	cancel()
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
			itemStarted := time.Now()
			// A panic outside the pool (which has its own recovery) must
			// not kill the process: convert it to a sanitized per-item
			// error like any other failure.
			defer func() {
				if v := recover(); v != nil {
					s.metrics.Panics.Add(1)
					results[i] = s.itemResult(nil, &PanicError{Value: v}, itemStarted)
				}
			}()
			item := &req.Items[i]
			ms := req.TimeoutMS
			if item.TimeoutMS > 0 {
				ms = item.TimeoutMS
			}
			ctx, cancel := s.withTimeout(r.Context(), ms)
			defer cancel()
			if item.Method == MethodRandomization {
				s.metrics.SweepPoints.Observe(len(item.Times))
			}
			// Batch items enqueue with the configured reserve: when the
			// queue is nearly saturated they are shed (per item) while
			// single solves may still use the remaining headroom.
			points, err := s.solve(ctx, prep, req.Model, nil, item, s.opts.BatchQueueReserve)
			results[i] = s.itemResult(points, err, itemStarted)
		}(i)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, &BatchResponse{
		Items:          results,
		PreparedCached: hit,
		ElapsedMS:      msSince(started),
	})
}

// itemResult maps one item's outcome to its per-item status.
func (s *Server) itemResult(points []BatchPoint, err error, started time.Time) BatchItemResult {
	if err != nil {
		s.countFailure(err)
		status := BatchStatusError
		if errors.As(err, new(*MemShedError)) {
			status = BatchStatusShedMemory
		}
		return BatchItemResult{Status: status, Error: err.Error(), ElapsedMS: msSince(started)}
	}
	s.metrics.ObserveLatency(time.Since(started))
	return BatchItemResult{Status: BatchStatusOK, Points: points, ElapsedMS: msSince(started)}
}
