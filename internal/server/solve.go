package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"somrm/internal/core"
	"somrm/internal/momentbounds"
	"somrm/internal/odesolver"
	"somrm/internal/sim"
	"somrm/internal/spec"
)

// Solve methods accepted by the API.
const (
	MethodRandomization = "randomization"
	MethodODE           = "ode"
	MethodSimulation    = "simulation"
)

// Limits applied during request validation (beyond Options).
const (
	maxSimReps     = 1_000_000
	defaultSimReps = 4000
	maxBoundsAt    = 64
	// maxComposeParts caps the component count of a composed request.
	maxComposeParts = 16
)

// SimParams parameterizes the Monte Carlo baseline. The seed makes the
// estimate deterministic, which is what lets simulation results be cached.
type SimParams struct {
	// Seed is the RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Reps is the replication count (default 4000, max 1e6).
	Reps int `json:"reps,omitempty"`
}

// ODEParams parameterizes the ODE baseline.
type ODEParams struct {
	// Method is one of "heun", "rk4" (default), "rk45".
	Method string `json:"method,omitempty"`
	// Steps is the fixed step count for heun/rk4 (0 = automatic).
	Steps int `json:"steps,omitempty"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Model is the JSON model spec (internal/spec schema). Exactly one of
	// Model and Compose must be set.
	Model *spec.Model `json:"model"`
	// Compose lists 2 to 16 independent component specs to solve as
	// their composition (additive rewards, Kronecker-sum structure
	// process): each component solves on its own and the moments combine
	// by binomial convolution. Randomization only, never checkpointed;
	// impulse-reward components are rejected with 400.
	Compose []*spec.Model `json:"compose,omitempty"`
	// T is the accumulation time, Order the highest moment order.
	T     float64 `json:"t"`
	Order int     `json:"order"`
	// Epsilon is the randomization truncation accuracy (default 1e-9).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Method selects the solver: randomization (default), ode, simulation.
	Method string `json:"method,omitempty"`
	// BoundsAt lists reward levels at which to return moment-based CDF
	// bounds alongside the moments.
	BoundsAt []float64 `json:"bounds_at,omitempty"`
	// Sim and ODE carry method-specific parameters.
	Sim *SimParams `json:"sim,omitempty"`
	ODE *ODEParams `json:"ode,omitempty"`
	// TimeoutMS caps this request's solve time in milliseconds; it is
	// clamped to the server's default timeout and excluded from the cache
	// key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ResumeToken continues an interrupted solve from its held checkpoint
	// (the resume_token of an earlier 202 partial response). The rest of
	// the request must be identical to the interrupted one. Like the
	// timeout, it is excluded from the cache key: a resumed solve's result
	// is bitwise the uninterrupted result, so it caches under the same key.
	ResumeToken string `json:"resume_token,omitempty"`

	// specHash memoizes the canonical model hash (hex) once cacheKey has
	// computed it, so the prepared-model cache does not re-canonicalize.
	specHash string
}

// item converts a normalized request into the one-point batch item the
// solve pipeline runs (see Server.solve): a single solve is a time grid
// of one. checkpoint and resume are the request's capture flag and the
// checkpoint its resume token named.
func (r *SolveRequest) item(checkpoint bool, resume *core.Checkpoint) *BatchItem {
	return &BatchItem{
		Times: []float64{r.T}, Order: r.Order, Epsilon: r.Epsilon, Method: r.Method,
		Sim: r.Sim, ODE: r.ODE, BoundsAt: r.BoundsAt,
		checkpoint: checkpoint, resume: resume,
	}
}

// newSolverStats copies core solver statistics onto the wire type.
func newSolverStats(st core.Stats) *SolverStats {
	return &SolverStats{
		Q: st.Q, QT: st.QT, D: st.D, Shift: st.Shift,
		G: st.G, ErrorBound: st.ErrorBound,
		MatVecs: st.MatVecs, SweepNS: st.SweepNS,
		StartIteration:    st.StartIteration,
		FlopsPerIteration: st.FlopsPerIteration,
		MatrixFormat:      st.MatrixFormat,
		TemporalBlock:     st.TemporalBlock,
		SweepKernel:       st.SweepKernel,
	}
}

// SolverStats mirrors core.Stats on the wire (randomization only).
// MatVecs and SweepNS are whole-sweep figures: for batch items solved in
// one shared sweep, every point of the grid reports the same totals.
type SolverStats struct {
	Q          float64 `json:"q"`
	QT         float64 `json:"qt"`
	D          float64 `json:"d"`
	Shift      float64 `json:"shift"`
	G          int     `json:"g"`
	ErrorBound float64 `json:"error_bound"`
	MatVecs    int64   `json:"matvecs"`
	SweepNS    int64   `json:"sweep_ns"`
	// StartIteration is the iteration the sweep started from: 0 for a
	// fresh sweep, k when a warm prepared model resumed from its state
	// ladder's snapshot at k (MatVecs then counts iterations k+1..G).
	StartIteration    int   `json:"start_iteration,omitempty"`
	FlopsPerIteration int64 `json:"flops_per_iteration"`
	// MatrixFormat is the storage representation the randomization sweep
	// streamed ("band" or "csr32", which the serial reference oracle
	// streams too); empty for solves that never ran a sweep.
	// A composed solve reports its largest component's sweep.
	MatrixFormat string `json:"matrix_format,omitempty"`
	// TemporalBlock is the temporal blocking depth the sweep
	// ran with: 1 for an unblocked sweep, the blocked-iteration group
	// depth otherwise. Zero for solves that never ran a sweep.
	TemporalBlock int `json:"temporal_block,omitempty"`
	// SweepKernel is the compute kernel the sweep dispatched ("avx2" or
	// "scalar"); empty for solves that never ran a sweep.
	SweepKernel string `json:"sweep_kernel,omitempty"`
}

// BoundPoint is one moment-based CDF bound evaluation.
type BoundPoint struct {
	X     float64 `json:"x"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Method string  `json:"method"`
	T      float64 `json:"t"`
	Order  int     `json:"order"`
	// Moments[j] = E[B(t)^j] under the model's initial distribution.
	Moments []float64 `json:"moments"`
	// Stats is present for the randomization method.
	Stats *SolverStats `json:"stats,omitempty"`
	// StdErr is present for the simulation method.
	StdErr []float64 `json:"std_err,omitempty"`
	// Bounds echoes BoundsAt with CDF bounds, when requested.
	Bounds []BoundPoint `json:"bounds,omitempty"`
	// Cached reports the response was served from the result cache;
	// Deduped that it was shared with a concurrent identical request;
	// PeerFilled that a non-owner replica adopted it from the ring
	// owner's result cache instead of solving.
	Cached     bool `json:"cached"`
	Deduped    bool `json:"deduped,omitempty"`
	PeerFilled bool `json:"peer_filled,omitempty"`
	// Resumed reports the solve continued from a held checkpoint instead
	// of sweeping from iteration 1.
	Resumed bool `json:"resumed,omitempty"`
	// ElapsedMS is the server-side processing time of the request that
	// actually solved (cache hits report their own, much smaller, time).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errBadRequest marks client errors (HTTP 400).
type errBadRequest struct{ msg string }

func (e *errBadRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &errBadRequest{msg: fmt.Sprintf(format, args...)}
}

// normalize applies defaults and validates everything that can be checked
// without building the model. It must be called before cacheKey.
func (r *SolveRequest) normalize(maxOrder int) error {
	if len(r.Compose) > 0 {
		if r.Model != nil {
			return badRequestf("model and compose are mutually exclusive")
		}
		if len(r.Compose) < 2 {
			return badRequestf("compose needs at least 2 components")
		}
		if len(r.Compose) > maxComposeParts {
			return badRequestf("%d compose components exceed the limit of %d", len(r.Compose), maxComposeParts)
		}
		for i, c := range r.Compose {
			if c == nil {
				return badRequestf("compose component %d missing", i)
			}
			if c.States <= 0 {
				return badRequestf("compose component %d has %d states", i, c.States)
			}
		}
		if r.Method != "" && r.Method != MethodRandomization {
			return badRequestf("compose supports only the randomization method")
		}
	} else if r.Model == nil {
		return badRequestf("missing model")
	}
	if r.T < 0 || math.IsNaN(r.T) || math.IsInf(r.T, 0) {
		return badRequestf("bad t=%g", r.T)
	}
	if r.Order < 0 || r.Order > maxOrder {
		return badRequestf("order %d outside [0, %d]", r.Order, maxOrder)
	}
	if r.Epsilon == 0 {
		r.Epsilon = core.DefaultEpsilon
	}
	if r.Epsilon <= 0 || r.Epsilon >= 1 || math.IsNaN(r.Epsilon) {
		return badRequestf("epsilon %g not in (0,1)", r.Epsilon)
	}
	if r.Method == "" {
		r.Method = MethodRandomization
	}
	switch r.Method {
	case MethodRandomization:
	case MethodODE:
		if r.ODE == nil {
			r.ODE = &ODEParams{}
		}
		if r.ODE.Method == "" {
			r.ODE.Method = "rk4"
		}
		switch r.ODE.Method {
		case "heun", "rk4", "rk45":
		default:
			return badRequestf("unknown ode method %q", r.ODE.Method)
		}
		if r.ODE.Steps < 0 {
			return badRequestf("ode steps %d < 0", r.ODE.Steps)
		}
	case MethodSimulation:
		if r.Sim == nil {
			r.Sim = &SimParams{}
		}
		if r.Sim.Seed == 0 {
			r.Sim.Seed = 1
		}
		if r.Sim.Reps == 0 {
			r.Sim.Reps = defaultSimReps
		}
		if r.Sim.Reps < 2 || r.Sim.Reps > maxSimReps {
			return badRequestf("sim reps %d outside [2, %d]", r.Sim.Reps, maxSimReps)
		}
	default:
		return badRequestf("unknown method %q", r.Method)
	}
	if len(r.BoundsAt) > maxBoundsAt {
		return badRequestf("%d bounds points exceed the limit of %d", len(r.BoundsAt), maxBoundsAt)
	}
	for _, x := range r.BoundsAt {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return badRequestf("bad bounds point %g", x)
		}
	}
	if r.TimeoutMS < 0 {
		return badRequestf("timeout_ms %d < 0", r.TimeoutMS)
	}
	if r.ResumeToken != "" {
		if r.Method != MethodRandomization {
			return badRequestf("resume_token applies only to the randomization method")
		}
		if !validHexKey(r.ResumeToken) {
			return badRequestf("malformed resume_token")
		}
	}
	return nil
}

// cacheKey returns the canonical content hash of (model, solve params).
// Everything that affects the numerical result participates; the timeout
// does not. Requests normalize before hashing, so spelled-out defaults
// and omitted defaults collide onto the same key, as do permutations of
// the spec's transition/impulse lists.
func (r *SolveRequest) cacheKey() (string, error) {
	specHash, err := r.modelHash()
	if err != nil {
		return "", err
	}
	r.specHash = hex.EncodeToString(specHash[:])
	params, err := json.Marshal(struct {
		T        float64    `json:"t"`
		Order    int        `json:"order"`
		Epsilon  float64    `json:"epsilon"`
		Method   string     `json:"method"`
		BoundsAt []float64  `json:"bounds_at,omitempty"`
		Sim      *SimParams `json:"sim,omitempty"`
		ODE      *ODEParams `json:"ode,omitempty"`
	}{r.T, r.Order, r.Epsilon, r.Method, r.BoundsAt, r.Sim, r.ODE})
	if err != nil {
		return "", fmt.Errorf("server: cache key: %w", err)
	}
	h := sha256.New()
	h.Write(specHash[:])
	h.Write(params)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// composeKeyTag domain-separates composed model hashes (see modelHash).
const composeKeyTag = "somrm/compose/v4\n"

// modelHash returns the canonical content hash of the request's model: the
// spec hash for plain requests, and a domain-separated hash of the ordered
// component hashes for composed requests (composition is ordered but not
// associative bitwise, so the component list is hashed as given).
func (r *SolveRequest) modelHash() ([32]byte, error) {
	if len(r.Compose) == 0 {
		h, err := r.Model.Hash()
		if err != nil {
			return [32]byte{}, badRequestf("unhashable model: %v", err)
		}
		return h, nil
	}
	h := sha256.New()
	// The tag versions how composed results are computed, so a journal or
	// a peer never serves an entry computed another way: v1 swept the
	// product chain, v2 folded per-state moments, v3 folded scalar
	// moments and met the request's epsilon by re-solving, v4 solves the
	// components once at an epsilon fixed before the sweep (moments and
	// bounds differ in their last bits).
	h.Write([]byte(composeKeyTag))
	for i, c := range r.Compose {
		ch, err := c.Hash()
		if err != nil {
			return [32]byte{}, badRequestf("unhashable compose component %d: %v", i, err)
		}
		h.Write(ch[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// buildPrepared parses and validates the spec and runs the solver's
// model-only setup; it is the build function fed to the prepared cache.
func buildPrepared(sp *spec.Model) (*core.Prepared, error) {
	model, err := sp.Build()
	if err != nil {
		return nil, badRequestf("bad model: %v", err)
	}
	prep, err := core.Prepare(model)
	if err != nil {
		return nil, badRequestf("bad model: %v", err)
	}
	return prep, nil
}

// buildComposedPrepared builds every component spec, composes them, and
// prepares the joint model. All composition failures — impulse-reward
// components in particular (core.ErrComposeImpulse) — are client errors.
func buildComposedPrepared(comps []*spec.Model) (*core.Prepared, error) {
	models := make([]*core.Model, len(comps))
	for i, sp := range comps {
		m, err := sp.Build()
		if err != nil {
			return nil, badRequestf("bad compose component %d: %v", i, err)
		}
		models[i] = m
	}
	joint, err := core.ComposeAll(models...)
	if err != nil {
		if errors.Is(err, core.ErrBadModel) {
			return nil, badRequestf("bad composition: %v", err)
		}
		return nil, err
	}
	prep, err := core.Prepare(joint)
	if err != nil {
		return nil, badRequestf("bad composition: %v", err)
	}
	return prep, nil
}

// buildFor returns the prepared-cache build function for a request: the
// plain spec build or the composed build.
func (r *SolveRequest) buildFor() func() (*core.Prepared, error) {
	if len(r.Compose) > 0 {
		comps := r.Compose
		return func() (*core.Prepared, error) { return buildComposedPrepared(comps) }
	}
	sp := r.Model
	return func() (*core.Prepared, error) { return buildPrepared(sp) }
}

// prepare resolves the prepared model for specHash through the
// single-flight LRU, counting hits and misses. Only a miss's build does
// work, and it runs as a pool task enqueued with the given queue reserve
// (see pool.DoReserved), so prepare must never be called from inside a
// pool task: the build would wait for a worker its caller holds.
// Requests joining another's in-flight build wait for it here, outside
// the pool, until it lands or their own ctx ends. sp may be nil (composed requests), in which case the model is
// not offered for drain handoff — peers rebuild it from the request on
// demand.
func (s *Server) prepare(ctx context.Context, specHash string, build func() (*core.Prepared, error), sp *spec.Model, reserve int) (*core.Prepared, bool, error) {
	prep, hit, err := s.prepared.GetOrBuild(ctx, specHash, func() (prep *core.Prepared, err error) {
		if poolErr := s.pool.DoReserved(ctx, func(context.Context) { prep, err = build() }, reserve); poolErr != nil {
			return nil, poolErr
		}
		return prep, err
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		s.metrics.PreparedHits.Add(1)
	} else {
		s.metrics.PreparedMisses.Add(1)
	}
	if s.opts.Cluster != nil && sp != nil {
		// Remember the parsed spec so drain handoff can ship this
		// prepared model to a ring successor.
		s.prepared.NoteSpec(specHash, sp)
	}
	return prep, hit, nil
}

// solve runs one item against its prepared model: it reserves the item's
// estimated working set (model or compose is the item's spec), then runs
// the executor on a pool worker enqueued with the given queue reserve.
func (s *Server) solve(ctx context.Context, prep *core.Prepared, model *spec.Model, compose []*spec.Model, item *BatchItem, reserve int) ([]BatchPoint, error) {
	release, err := s.admit(model, compose, item)
	if err != nil {
		return nil, err
	}
	defer release()
	var points []BatchPoint
	var solveErr error
	if err := s.pool.DoReserved(ctx, func(ctx context.Context) {
		s.metrics.Solves.Add(1)
		points, solveErr = s.solveItem(ctx, prep, item)
	}, reserve); err != nil {
		return nil, err
	}
	return points, solveErr
}

// runItem is the executor: it solves one normalized item against the
// prepared model, counting the sweep in the /metrics sweep counters, and
// attaches distribution bounds when requested. Randomization solves the
// whole grid in one shared sweep; ode and simulation iterate the grid
// point by point, checking the deadline between points. The server's
// sweep parallelism never changes results bitwise and so is not part of
// items or cache keys.
func (s *Server) runItem(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
	points := make([]BatchPoint, 0, len(item.Times))
	switch item.Method {
	case MethodRandomization:
		results, err := prep.AccumulatedRewardAtContext(ctx, item.Times, item.Order, &core.Options{
			Epsilon: item.Epsilon, SweepWorkers: s.opts.SweepWorkers,
			Checkpoint: item.checkpoint, Resume: item.resume,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			points = append(points, BatchPoint{T: res.T, Moments: res.Moments, Stats: newSolverStats(res.Stats)})
		}
		// The sweep figures are whole-sweep totals copied into every
		// result; observe them once per item, not once per grid point.
		if st := results[0].Stats; st.SweepNS > 0 {
			s.metrics.ObserveSweep(time.Duration(st.SweepNS))
			s.metrics.SweepFormats.Observe(st.MatrixFormat)
			s.metrics.ObserveSweepBlocking(st.TemporalBlock)
			s.metrics.SweepKernels.Observe(st.SweepKernel)
			s.metrics.ObserveLadder(st.Ladder, st.LadderCaptured)
		}
	case MethodODE, MethodSimulation:
		for _, t := range item.Times {
			moments, stdErr, err := solvePoint(ctx, prep.Model(), item.Method, item.ODE, item.Sim, t, item.Order)
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

// countFailure does the failure accounting of one failed solve, single
// or batch item: queue and memory sheds and shutdown count as
// rejections, everything else as a failure.
func (s *Server) countFailure(err error) {
	switch {
	case errors.As(err, new(*MemShedError)):
		s.metrics.MemShed.Add(1)
		s.metrics.Rejected.Add(1)
	case errors.Is(err, ErrShed):
		s.metrics.BatchShed.Add(1)
		s.metrics.Rejected.Add(1)
	case errors.Is(err, ErrQueueFull):
		s.metrics.ShedQueueFull.Add(1)
		s.metrics.Rejected.Add(1)
	case errors.Is(err, ErrShuttingDown):
		s.metrics.Rejected.Add(1)
	case errors.As(err, new(*QueueDeadlineError)):
		// Queue pressure, not solver slowness.
		s.metrics.ShedDeadline.Add(1)
		s.metrics.Failures.Add(1)
	default:
		s.metrics.Failures.Add(1)
	}
}

// withTimeout derives a solve context bounded by the server's default
// timeout, or by ms milliseconds when a request asks for less.
func (s *Server) withTimeout(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	timeout := s.opts.DefaultTimeout
	if ms > 0 && ms <= timeout.Milliseconds() {
		timeout = min(timeout, time.Duration(ms)*time.Millisecond)
	}
	return context.WithTimeout(ctx, timeout)
}

// odeMethods maps the ODE method names a request may carry to the
// integrators; normalization rejects every other name.
var odeMethods = map[string]odesolver.Method{
	"heun": odesolver.MethodHeun,
	"rk4":  odesolver.MethodRK4,
	"rk45": odesolver.MethodRK45,
}

// solvePoint solves one time point on the ODE or simulation baseline and
// returns the initial-distribution-weighted moments, plus the simulation
// estimate's standard errors. Neither solver has an internal cancellation
// hook, so the deadline is honored at the dispatch boundary.
func solvePoint(ctx context.Context, model *core.Model, method string, ode *ODEParams, sp *SimParams, t float64, order int) (moments, stdErr []float64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if method == MethodSimulation {
		simulator, err := sim.New(model, sp.Seed)
		if err != nil {
			return nil, nil, err
		}
		est, err := simulator.EstimateMoments(t, order, sp.Reps)
		if err != nil {
			return nil, nil, err
		}
		return est.Moments, est.StdErr, nil
	}
	vm, err := odesolver.MomentsByODE(model, t, order, &odesolver.MomentOptions{Steps: ode.Steps, Method: odeMethods[ode.Method]})
	if err != nil {
		return nil, nil, err
	}
	pi := model.Initial()
	moments = make([]float64, order+1)
	for j := range moments {
		var sum float64
		for i, p := range pi {
			sum += p * vm[j][i]
		}
		moments[j] = sum
	}
	return moments, nil, nil
}
