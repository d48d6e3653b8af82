// Package server turns the somrm solvers into an HTTP JSON service: a
// bounded worker pool executes solves with per-request deadlines, an LRU
// cache keyed by a canonical (model, params) hash serves repeated
// requests, and concurrent identical requests are deduplicated onto a
// single solve. The package is stdlib-only, like the rest of the module.
//
// Every solve takes one path. A /v1/solve request is converted into a
// one-point batch item — a time grid of one, which the solver treats
// exactly as it treats each point of a grid — and then it, like each item
// of a batch:
//
//   - resolves its prepared model (Server.prepare) through the
//     prepared-model cache, whose single-flight collapses concurrent
//     misses onto one build;
//   - reserves its estimated working set against the memory budget
//     (Server.admit);
//   - runs the one executor (Server.runItem: the solver, the sweep
//     counters, the distribution bounds) on a pool worker;
//   - on failure, goes through one failure accounting
//     (Server.countFailure).
//
// Only a cache miss's build does work, and it runs as its own pool task,
// so every build counts against the worker bound. prepare must therefore
// never be called from inside a pool task, where the build would wait for
// a worker its caller holds; a request that joins another request's
// in-flight build waits for it outside the pool, holding no worker.
//
// Endpoints:
//
//	POST /v1/solve        — solve one model (see SolveRequest / SolveResponse)
//	POST /v1/solve/batch  — solve one model at many time grids in one request
//	                        (see BatchRequest / BatchResponse)
//	GET  /healthz         — liveness; 503 while draining
//	GET  /metrics         — counters and the solve latency histogram (JSON)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"somrm/internal/core"
)

// Options configures a Server. The zero value selects sensible defaults.
type Options struct {
	// Workers is the solver pool size (default GOMAXPROCS). Solves are
	// CPU-bound, so more workers than cores only adds contention.
	Workers int
	// QueueSize bounds the number of solves waiting for a worker
	// (default 64). A full queue rejects with 503 rather than building an
	// unbounded backlog.
	QueueSize int
	// BatchQueueReserve is the number of queue slots batch items may never
	// consume: when free slots drop to this reserve, batch items are shed
	// with 503-per-item while single solves still enqueue, so wide batches
	// cannot starve interactive traffic. Default QueueSize/4 (at least 1);
	// negative disables the reserve.
	BatchQueueReserve int
	// CacheSize is the LRU result-cache capacity in entries
	// (default 256; negative disables caching).
	CacheSize int
	// PreparedCacheSize is the prepared-model LRU capacity in entries
	// (default 128; negative disables). Prepared models carry the validated
	// model plus its uniformized matrices, so repeated solves and batches
	// against the same model skip parsing, validation, and matrix scaling.
	PreparedCacheSize int
	// DefaultTimeout caps per-request solve time (default 30s). Requests
	// may ask for less via timeout_ms, never more.
	DefaultTimeout time.Duration
	// MaxOrder bounds the requested moment order (default 12).
	MaxOrder int
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// SweepWorkers is passed through to the randomization solver
	// (core.Options.SweepWorkers): 0 picks automatically (the fused
	// kernel at every model size, run inline below 8,191 states and as a
	// GOMAXPROCS worker team at or above it), > 0 forces a team size, and
	// < 0 selects the serial reference sweep, the test oracle rather than
	// a production mode. Results are bitwise identical for every setting. Note the server also runs
	// Workers solves concurrently; on a machine with C cores, keeping
	// Workers x SweepWorkers near C avoids oversubscription.
	SweepWorkers int
	// Cluster connects this server to a solver cluster: request routing
	// is classified against the ring, non-owned cache misses try a peer
	// cache fill before solving locally, and Shutdown streams the hottest
	// cache entries to ring successors. nil (the default) disables all
	// cluster behavior; internal/cluster.NewNode wires it.
	Cluster *ClusterHooks
	// HandoffMax bounds how many cache entries (results first, then
	// prepared-model specs) a draining replica streams to its successors
	// (default 128; negative disables drain handoff).
	HandoffMax int
	// Checkpoints enables durable solves: a randomization solve that hits
	// its deadline mid-sweep captures the iteration state at the barrier
	// where the cancellation lands and answers 202 with a resume token; a
	// re-POST of the same request carrying the token continues from the
	// checkpoint (bitwise identical to an uninterrupted solve) instead of
	// restarting. Held checkpoints live in a bounded, TTL'd store and are
	// included in drain handoff so in-flight work migrates to ring
	// successors. Composed requests never checkpoint. Off by default.
	Checkpoints bool
	// CheckpointTTL is how long an unclaimed checkpoint is held (default
	// 2m); CheckpointCap bounds how many are held at once (default 64,
	// oldest evicted first). Both only apply with Checkpoints enabled.
	CheckpointTTL time.Duration
	CheckpointCap int
	// PersistDir enables the crash-safe warm cache: result-cache writes
	// are journaled (append + fsync) under this directory and reloaded on
	// startup, so a killed replica restarts warm and serves byte-identical
	// cache hits instead of re-solving. Empty disables persistence.
	PersistDir string
	// DiskFaults, when non-nil, injects write faults into the persistence
	// writer (chaos testing); see FaultConfig.DiskErrRate / DiskTornRate.
	DiskFaults *FaultInjector
	// MemBudget bounds the estimated solver working set (bytes) admitted
	// concurrently: requests whose format-aware footprint estimate would
	// push the in-flight total past the budget are shed with a typed 503
	// and counted in mem_shed_total, instead of letting concurrent large
	// solves OOM the replica. Zero or negative disables the gate.
	MemBudget int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.BatchQueueReserve == 0 {
		o.BatchQueueReserve = max(1, o.QueueSize/4)
	}
	if o.BatchQueueReserve < 0 {
		o.BatchQueueReserve = 0
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.PreparedCacheSize == 0 {
		o.PreparedCacheSize = 128
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxOrder <= 0 {
		o.MaxOrder = 12
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.HandoffMax == 0 {
		o.HandoffMax = 128
	}
	if o.HandoffMax < 0 {
		o.HandoffMax = 0
	}
	if o.HandoffMax > maxHandoffEntries {
		o.HandoffMax = maxHandoffEntries
	}
	if o.CheckpointTTL <= 0 {
		o.CheckpointTTL = defaultCheckpointTTL
	}
	if o.CheckpointCap <= 0 {
		o.CheckpointCap = defaultCheckpointCap
	}
	return o
}

// Server is the solver service. Create it with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	opts        Options
	pool        *pool
	cache       *lruCache
	prepared    *preparedCache
	flight      *flightGroup
	metrics     *Metrics
	checkpoints *checkpointStore // nil unless Options.Checkpoints
	persist     *cachePersister  // nil unless Options.PersistDir
	memGate     *memGate         // nil unless Options.MemBudget > 0
	start       time.Time
	draining    atomic.Bool

	// solveItem is the executor every solve runs on a pool worker
	// (runItem); tests substitute it to control timing and count
	// executions.
	solveItem func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error)
}

// New builds a Server and starts its worker pool. With Options.PersistDir
// set it also replays the cache journal, restoring every verifiable entry
// into the result cache (a corrupt tail is truncated, never fatal).
func New(opts Options) *Server {
	s, err := NewWithPersistence(opts)
	if err != nil {
		// Persistence failing to initialize degrades to a cold cache: the
		// server stays correct, it just re-solves. NewWithPersistence is
		// the entry point for callers that want the error.
		o := opts
		o.PersistDir = ""
		s, _ = NewWithPersistence(o)
	}
	return s
}

// NewWithPersistence is New returning the persistence-layer error instead
// of silently degrading to a cold in-memory cache.
func NewWithPersistence(opts Options) (*Server, error) {
	o := opts.withDefaults()
	s := &Server{
		opts:     o,
		cache:    newLRU(o.CacheSize),
		prepared: newPreparedCache(o.PreparedCacheSize),
		flight:   newFlightGroup(),
		metrics:  &Metrics{},
		start:    time.Now(),
	}
	s.pool = newPool(o.Workers, o.QueueSize, func(any) { s.metrics.Panics.Add(1) })
	s.solveItem = s.runItem
	if o.Checkpoints {
		s.checkpoints = newCheckpointStore(o.CheckpointCap, o.CheckpointTTL)
	}
	if o.MemBudget > 0 {
		s.memGate = newMemGate(o.MemBudget)
	}
	if o.PersistDir != "" {
		p, restored, err := openCachePersister(o.PersistDir, o.DiskFaults, s.metrics)
		if err != nil {
			// The pool is already running; stop its workers before failing
			// so an aborted construction leaks nothing.
			_ = s.pool.Shutdown(context.Background())
			return nil, err
		}
		s.persist = p
		for _, e := range restored {
			s.cache.Put(e.Key, e.SpecHash, e.Response)
		}
		s.metrics.CacheRestored.Add(int64(len(restored)))
		// Journal every future insert. The hook runs outside the cache
		// mutex, so the fsync never serializes cache readers.
		s.cache.onPut = s.persist.Append
	}
	return s, nil
}

// Metrics exposes the server's live counters (primarily for tests and
// embedding binaries; HTTP clients use /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Cluster != nil {
		// The peer endpoints accept cache writes (handoff) and expose raw
		// cache reads, so they exist only in cluster mode; a single-node
		// deployment keeps its read/compute-only surface and answers 404
		// here.
		mux.HandleFunc("GET /v1/peer/result/{key}", s.handlePeerResult)
		mux.HandleFunc("POST /v1/peer/handoff", s.handlePeerHandoff)
	}
	return mux
}

// Shutdown drains the server: new and queued requests are rejected with
// 503 while in-flight solves run to completion (or the context expires).
// The HTTP listener itself is the caller's to close; call this after
// http.Server.Shutdown has stopped accepting connections, or before to
// fail fast.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Drain handoff: stream the hottest result and prepared-model entries
	// to ring successors before the pool stops, so a rolling restart does
	// not cold-start the shard. Best effort — a failed push only costs the
	// successor a recompute.
	if h := s.opts.Cluster; h != nil && h.Handoff != nil && s.opts.HandoffMax > 0 {
		if entries := s.handoffEntries(s.opts.HandoffMax); len(entries) > 0 {
			h.Handoff(ctx, entries)
		}
	}
	err := s.pool.Shutdown(ctx)
	if s.persist != nil {
		// Close after the pool: in-flight solves may still append entries.
		if cerr := s.persist.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.QueueDepth = s.pool.Depth()
	snap.Workers = s.opts.Workers
	snap.CacheEntries = s.cache.Len()
	snap.PreparedEntries = s.prepared.Len()
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	if s.checkpoints != nil {
		snap.CheckpointEntries = int64(s.checkpoints.Len())
	}
	if s.memGate != nil {
		snap.MemInFlightBytes = s.memGate.InFlight()
		snap.MemBudgetBytes = s.opts.MemBudget
	}
	if h := s.opts.Cluster; h != nil && h.PeerStates != nil {
		snap.PeerBreakers = h.PeerStates()
	}
	writeJSON(w, http.StatusOK, snap)
}

// classifyRoute counts one request against the ring-ownership counters and
// reports the owning replica when the model is owned elsewhere.
func (s *Server) classifyRoute(specHash string) (ownerURL string, remote bool) {
	h := s.opts.Cluster
	if h == nil || h.Owner == nil {
		return "", false
	}
	owner, local := h.Owner(specHash)
	if local {
		s.metrics.RouteLocal.Add(1)
		return "", false
	}
	s.metrics.RouteRemote.Add(1)
	return owner, true
}

// peerFill tries to adopt the owner's cached result for a non-owned
// request instead of solving locally. It runs inside the single-flight
// leader, so concurrent identical requests share one fill attempt.
func (s *Server) peerFill(ctx context.Context, owner, key, specHash string) (*SolveResponse, bool) {
	h := s.opts.Cluster
	if h == nil || h.FetchResult == nil {
		return nil, false
	}
	resp, ok := h.FetchResult(ctx, owner, key)
	if !ok {
		s.metrics.PeerFillMisses.Add(1)
		return nil, false
	}
	s.metrics.PeerFillHits.Add(1)
	// Cache a clean copy: PeerFilled describes how this request was
	// served, not the entry itself — later local hits must read as plain
	// Cached results.
	cached := *resp
	cached.Cached = false
	cached.Deduped = false
	cached.PeerFilled = false
	s.cache.Put(key, specHash, &cached)
	resp.PeerFilled = true
	resp.Cached = false
	return resp, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	if s.draining.Load() {
		s.metrics.Rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown.Error())
		return
	}

	req, err := decodeSolveRequest(readBody(w, r, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if err := req.normalize(s.opts.MaxOrder); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := req.cacheKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	owner, remote := s.classifyRoute(req.specHash)

	started := time.Now()
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		hit := *resp
		hit.Cached = true
		hit.ElapsedMS = msSince(started)
		writeJSON(w, http.StatusOK, &hit)
		return
	}
	s.metrics.CacheMisses.Add(1)

	// Resolve the resume token before dispatch, so a dead token fails fast
	// with a typed status instead of burning a solve from scratch.
	var resume *core.Checkpoint
	if req.ResumeToken != "" {
		if resume, err = s.resolveResume(req, key); err != nil {
			s.writeSolveError(w, err)
			return
		}
	}
	// Capture a checkpoint if the deadline lands mid-sweep, so the client
	// can resume instead of restarting. Composed solves run one sweep per
	// component and do not checkpoint.
	item := req.item(s.checkpoints != nil && req.Method == MethodRandomization && len(req.Compose) == 0, resume)

	ctx, cancel := s.withTimeout(r.Context(), req.TimeoutMS)
	defer cancel()

	resp, shared, err := s.flight.Do(ctx, key, func() (*SolveResponse, error) {
		// Peer cache fill: a non-owned request first asks the owner's
		// result cache; a hit skips the local solve entirely (the owner's
		// response is bitwise what we would compute).
		if remote {
			if filled, ok := s.peerFill(ctx, owner, key, req.specHash); ok {
				return filled, nil
			}
		}
		prep, _, err := s.prepare(ctx, req.specHash, req.buildFor(), req.Model, 0)
		if err != nil {
			return nil, err
		}
		points, err := s.solve(ctx, prep, req.Model, req.Compose, item, 0)
		if err != nil {
			return nil, err
		}
		p := &points[0]
		solved := &SolveResponse{
			Method: req.Method, T: req.T, Order: req.Order,
			Moments: p.Moments, Stats: p.Stats, StdErr: p.StdErr, Bounds: p.Bounds,
			Resumed: resume != nil, ElapsedMS: msSince(started),
		}
		if resume != nil {
			s.metrics.Resumes.Add(1)
			s.checkpoints.Remove(req.ResumeToken)
		}
		s.cache.Put(key, req.specHash, solved)
		s.metrics.ObserveLatency(time.Since(started))
		return solved, nil
	})
	if shared {
		s.metrics.DedupShared.Add(1)
	}
	if err != nil {
		if s.writePartial(w, req, key, err) {
			return
		}
		s.writeSolveError(w, err)
		return
	}
	if shared {
		// Don't mutate the cached response other callers may be reading.
		dup := *resp
		dup.Deduped = true
		resp = &dup
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveResume validates the request's resume token against the held
// checkpoint store and returns the decoded checkpoint. The token must name
// a checkpoint captured for this exact request key — model, t, order,
// epsilon, method — so a token cannot be replayed against a different
// solve.
func (s *Server) resolveResume(req *SolveRequest, key string) (*core.Checkpoint, error) {
	if s.checkpoints == nil {
		return nil, badRequestf("resume_token set but checkpoints are disabled on this server")
	}
	e, ok := s.checkpoints.Get(req.ResumeToken)
	if !ok {
		return nil, errResumeTokenGone
	}
	if e.key != key {
		return nil, badRequestf("resume_token was issued for a different request")
	}
	cp, err := core.DecodeCheckpoint(e.blob)
	if err != nil {
		// A corrupt held checkpoint is unrecoverable; drop it so the
		// client's retry-without-token path solves from scratch.
		s.checkpoints.Remove(req.ResumeToken)
		return nil, errResumeTokenGone
	}
	return cp, nil
}

// writePartial answers an interrupted checkpoint-enabled solve with a 202
// partial status carrying the resume token. Returns false when the error
// is not an interruption (the caller falls through to writeSolveError).
func (s *Server) writePartial(w http.ResponseWriter, req *SolveRequest, key string, err error) bool {
	var ir *core.Interrupted
	if s.checkpoints == nil || !errors.As(err, &ir) {
		return false
	}
	cp := ir.Checkpoint
	token := s.checkpoints.Put(key, req.specHash, cp.Encode(), cp.Completed, cp.GMax)
	s.metrics.Partials.Add(1)
	writeJSON(w, http.StatusAccepted, &PartialResponse{
		Status:      "partial",
		ResumeToken: token,
		Completed:   cp.Completed,
		GMax:        cp.GMax,
		Progress:    cp.Progress(),
		Error:       "solve deadline exceeded; re-POST with resume_token to continue",
	})
	return true
}

// writeSolveError counts a failed solve (see countFailure) and maps it to
// an HTTP status: capacity and shutdown to 503 (memory shed included),
// deadlines to 504, malformed input to 400, dead resume tokens to 410,
// checkpoint/request mismatches to 409, recovered panics to a sanitized
// 500, anything else to 500.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	s.countFailure(err)
	var bad *errBadRequest
	var pe *PanicError
	switch {
	case errors.As(err, new(*MemShedError)), errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errResumeTokenGone):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, core.ErrCheckpoint):
		writeError(w, http.StatusConflict, err.Error())
	case errors.As(err, new(*QueueDeadlineError)):
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "solve deadline exceeded")
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &pe):
		// PanicError.Error() is sanitized by construction: no panic value,
		// no stack, nothing internal crosses the wire.
		writeError(w, http.StatusInternalServerError, pe.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
