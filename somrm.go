// Package somrm analyzes second-order Markov reward models: continuous-time
// Markov chains whose accumulated reward evolves as a Brownian motion with
// state-dependent drift r_i and variance sigma_i^2, after
//
//	G. Horváth, S. Rácz, M. Telek, "Analysis of Second-Order Markov Reward
//	Models", DSN 2004.
//
// The primary entry points are:
//
//   - NewModel / NewModelFromRates / OnOffModel construct models (Q, R, S, pi).
//   - Model.AccumulatedReward computes raw moments of the accumulated reward
//     B(t) with the paper's randomization method (Theorems 3-4), including
//     the provable truncation error bound of eq. (11).
//   - MomentsByODE integrates the moment ODE of Theorem 2 (the paper's
//     trapezoid-rule baseline).
//   - NewSimulator draws exact Monte Carlo trajectories (the paper's
//     simulation baseline).
//   - NewDistributionBounds turns computed moments into sharp
//     Chebyshev-Markov bounds on the reward distribution (Figures 5-7).
//   - NewTransformer evaluates/inverts the transform-domain descriptions of
//     eq. (2) and (5), and SolveDensityPDE solves the density PDE of eq. (4)
//     for small models.
//   - NewServer (and the cmd/somrm-serve binary) exposes the solvers as an
//     HTTP JSON service with a bounded worker pool, result caching,
//     prepared-model caching, in-flight request deduplication, and a batch
//     endpoint that solves whole time grids in one shared randomization
//     sweep; NewServerClient talks to it.
//
// The package is pure Go with no dependencies outside the standard library.
package somrm

import (
	"context"

	"somrm/internal/cluster"
	"somrm/internal/core"
	"somrm/internal/ctmc"
	"somrm/internal/laplace"
	"somrm/internal/models"
	"somrm/internal/momentbounds"
	"somrm/internal/odesolver"
	"somrm/internal/pde"
	"somrm/internal/resilience"
	"somrm/internal/server"
	"somrm/internal/sim"
	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// Re-exported core types. See the internal packages for method-level
// documentation; every method is part of the public API surface.
type (
	// Model is a second-order Markov reward model (Q, R, S, pi).
	Model = core.Model
	// SolveOptions configures the randomization moment solver.
	SolveOptions = core.Options
	// Result holds accumulated-reward moments and solver statistics.
	Result = core.Result
	// SolveStats reports randomization work (q, qt, d, G, flops).
	SolveStats = core.Stats

	// Generator is a validated CTMC generator matrix.
	Generator = ctmc.Generator

	// Matrix is a compressed-sparse-row matrix used for generators and
	// impulse-reward matrices.
	Matrix = sparse.CSR
	// MatrixBuilder accumulates triplets into a Matrix.
	MatrixBuilder = sparse.Builder

	// Simulator draws Monte Carlo trajectories of a model.
	Simulator = sim.Simulator
	// SimEstimate holds Monte Carlo moment estimates with standard errors.
	SimEstimate = sim.Estimate
	// Trajectory is a jointly sampled state and reward path (Figure 1).
	Trajectory = sim.Trajectory
	// FirstPassage is one simulated completion-time replication.
	FirstPassage = sim.FirstPassage
	// PassageEstimate aggregates first-passage replications.
	PassageEstimate = sim.PassageEstimate

	// Asymptotics holds the long-run CLT parameters of the reward
	// (Model.LongRun).
	Asymptotics = core.Asymptotics
	// JointResult holds joint reward-state moments (Model.JointMoments).
	JointResult = core.JointResult
	// CompletionBound bounds the completion-time distribution
	// (Model.CompletionProbability).
	CompletionBound = core.CompletionBound

	// DistributionBounds computes sharp moment-based CDF bounds.
	DistributionBounds = momentbounds.Estimator
	// CDFBounds is a lower/upper bound pair for a CDF value.
	CDFBounds = momentbounds.Bounds
	// EdgeworthEstimate is a smooth Gram-Charlier density/CDF approximation
	// from moments (complementing the hard bounds).
	EdgeworthEstimate = momentbounds.EdgeworthEstimate

	// ODEOptions configures the ODE moment baseline.
	ODEOptions = odesolver.MomentOptions

	// Transformer evaluates transform-domain reward descriptions.
	Transformer = laplace.Transformer

	// PDEOptions configures the density PDE solver.
	PDEOptions = pde.Options
	// PDESolution is the PDE density on a grid.
	PDESolution = pde.Solution

	// Server is the solver HTTP service: a worker pool, result cache,
	// prepared-model cache, and request deduplication around the solvers
	// (see cmd/somrm-serve).
	Server = server.Server
	// ServerOptions configures NewServer.
	ServerOptions = server.Options
	// SolveRequest / SolveResponse are the POST /v1/solve wire types.
	SolveRequest  = server.SolveRequest
	SolveResponse = server.SolveResponse
	// BatchRequest / BatchResponse are the POST /v1/solve/batch wire types:
	// one model solved at many time grids, with per-item status (BatchItem,
	// BatchItemResult, BatchPoint).
	BatchRequest    = server.BatchRequest
	BatchResponse   = server.BatchResponse
	BatchItem       = server.BatchItem
	BatchItemResult = server.BatchItemResult
	BatchPoint      = server.BatchPoint
	// Client is an HTTP client for the solver service (Solve, SolveBatch,
	// Metrics, Health) with built-in retry/backoff and a circuit breaker.
	Client = server.Client
	// ClientOption configures NewServerClient (retry policy, budget,
	// breaker, transport).
	ClientOption = server.ClientOption
	// RetryPolicy is the client's exponential-backoff-with-full-jitter
	// schedule.
	RetryPolicy = resilience.RetryPolicy
	// RetryBudget is the client's token-bucket retry throttle.
	RetryBudget = resilience.Budget
	// BreakerConfig configures the client's sliding-window circuit breaker.
	BreakerConfig = resilience.BreakerConfig
	// BreakerStats counts breaker state transitions and rejections.
	BreakerStats = resilience.BreakerStats
	// ServerMetrics is the JSON document served at /metrics.
	ServerMetrics = server.MetricsSnapshot
	// FaultConfig / FaultInjector inject probabilistic faults (503s,
	// truncated responses, handler panics, latency) into a server handler
	// chain for chaos testing. Never enabled by default; see the
	// somrm-serve -fault-* flags.
	FaultConfig   = server.FaultConfig
	FaultInjector = server.FaultInjector

	// ClusterClient routes solves across a somrm-serve cluster: each
	// model is assigned to an owning replica on a consistent-hash ring
	// (maximizing that replica's cache hits) with failover along the ring
	// and a per-replica circuit breaker.
	ClusterClient = cluster.Client
	// ClusterOption configures NewClusterClient beyond the shared
	// ClientOptions (virtual nodes, probing, breaker config).
	ClusterOption = cluster.Option
	// ClusterNode is one replica of a solver cluster: a Server wired into
	// the ring with peer cache fill and drain handoff (see somrm-serve
	// -self/-peers).
	ClusterNode = cluster.Node
	// ClusterNodeOptions configures NewClusterNode.
	ClusterNodeOptions = cluster.NodeOptions
	// ClusterRing is the deterministic consistent-hash placement ring
	// shared by every replica and client.
	ClusterRing = cluster.Ring

	// PreparedModel is a model with its uniformized solver matrices
	// precomputed; repeated and multi-time solves against it skip the
	// model-only setup (PrepareModel).
	PreparedModel = core.Prepared

	// OnOffParams parameterizes the paper's ON-OFF multiplexer example.
	OnOffParams = models.OnOffParams
	// MultiprocessorParams parameterizes the repairable multiprocessor
	// performability model.
	MultiprocessorParams = models.MultiprocessorParams
	// QueueDrainParams parameterizes the two-mode queue drain model.
	QueueDrainParams = models.QueueDrainParams
)

// ODE integration methods for MomentsByODE.
const (
	ODEMethodHeun = odesolver.MethodHeun
	ODEMethodRK4  = odesolver.MethodRK4
	ODEMethodRK45 = odesolver.MethodRK45
)

// NewModel builds a second-order Markov reward model from a validated
// generator, per-state drifts, per-state variances, and an initial
// distribution.
func NewModel(gen *Generator, rates, variances, initial []float64) (*Model, error) {
	return core.New(gen, rates, variances, initial)
}

// NewFirstOrderModel builds an ordinary Markov reward model (variances all
// zero).
func NewFirstOrderModel(gen *Generator, rates, initial []float64) (*Model, error) {
	return core.NewFirstOrder(gen, rates, initial)
}

// NewModelFromRates builds a model from an off-diagonal rate function
// rate(i, j) over n states, plus drifts, variances and the initial
// distribution.
func NewModelFromRates(n int, rate func(i, j int) float64, rates, variances, initial []float64) (*Model, error) {
	gen, err := ctmc.NewGeneratorFromRates(n, rate)
	if err != nil {
		return nil, err
	}
	return core.New(gen, rates, variances, initial)
}

// NewGenerator validates a CSR rate matrix as a CTMC generator.
func NewGenerator(m *Matrix) (*Generator, error) { return ctmc.NewGenerator(m) }

// NewGeneratorFromDense validates a row-major dense rate matrix.
func NewGeneratorFromDense(n int, data []float64) (*Generator, error) {
	return ctmc.NewGeneratorFromDense(n, data)
}

// NewBirthDeathGenerator builds a birth-death generator from birth rates
// up[i] (i -> i+1) and death rates down[i] (i+1 -> i).
func NewBirthDeathGenerator(up, down []float64) (*Generator, error) {
	return ctmc.NewBirthDeath(up, down)
}

// NewMatrixBuilder returns a builder for a rows x cols sparse matrix.
func NewMatrixBuilder(rows, cols int) *MatrixBuilder { return sparse.NewBuilder(rows, cols) }

// UnitDistribution returns the distribution concentrated on state i.
func UnitDistribution(n, i int) ([]float64, error) { return ctmc.UnitDistribution(n, i) }

// MomentsByODE integrates the moment ODE system of Theorem 2 (eq. 6) as an
// independent baseline for Model.AccumulatedReward. It returns the raw
// moment vectors V^(0..order)(t) per initial state.
func MomentsByODE(m *Model, t float64, order int, opts *ODEOptions) ([][]float64, error) {
	return odesolver.MomentsByODE(m, t, order, opts)
}

// NewSimulator builds a Monte Carlo simulator with a deterministic seed.
func NewSimulator(m *Model, seed int64) (*Simulator, error) { return sim.New(m, seed) }

// NewDistributionBounds builds a moment-based distribution bound estimator
// from raw moments raw[j] = E[X^j] (raw[0] = 1). Feed it Result.Moments to
// bound the accumulated-reward distribution as in Figures 5-7.
func NewDistributionBounds(raw []float64) (*DistributionBounds, error) {
	return momentbounds.New(raw)
}

// NewEdgeworthEstimate builds a Gram-Charlier A density/CDF approximation
// from raw moments (order 3..6).
func NewEdgeworthEstimate(raw []float64, order int) (*EdgeworthEstimate, error) {
	return momentbounds.NewEdgeworth(raw, order)
}

// NewTransformer prepares transform-domain evaluation (eq. 2, 5) and
// Fourier/Gil-Pelaez distribution inversion for a small model.
func NewTransformer(m *Model) (*Transformer, error) { return laplace.NewTransformer(m) }

// SolveDensityPDE solves the density PDE of eq. (4) on a truncated grid.
func SolveDensityPDE(m *Model, t float64, opts *PDEOptions) (*PDESolution, error) {
	return pde.SolveDensity(m, t, opts)
}

// OnOffModel builds the paper's section-7 ON-OFF multiplexer model.
func OnOffModel(p OnOffParams) (*Model, error) { return models.OnOff(p) }

// OnOffPaperSmall returns the Table 1 parameters with the given variance.
func OnOffPaperSmall(sigma2 float64) OnOffParams { return models.PaperSmall(sigma2) }

// OnOffPaperLarge returns the Table 2 parameters (N = 200,000).
func OnOffPaperLarge() OnOffParams { return models.PaperLarge() }

// MultiprocessorModel builds the repairable multiprocessor performability
// model.
func MultiprocessorModel(p MultiprocessorParams) (*Model, error) {
	return models.Multiprocessor(p)
}

// QueueDrainModel builds the two-mode queue drain model with possibly
// negative net drifts.
func QueueDrainModel(p QueueDrainParams) (*Model, error) { return models.QueueDrain(p) }

// ParseModelJSON builds a model from the JSON interchange format shared
// with cmd/somrm (see internal/spec for the schema).
func ParseModelJSON(data []byte) (*Model, error) {
	parsed, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	return parsed.Build()
}

// ModelToJSON renders a model in the JSON interchange format.
func ModelToJSON(m *Model) ([]byte, error) {
	s, err := spec.FromModel(m)
	if err != nil {
		return nil, err
	}
	return s.Encode()
}

// NewServer builds the solver HTTP service; mount Handler() on an
// http.Server and call Shutdown to drain (cmd/somrm-serve does both).
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// NewServerClient returns an HTTP client for a solver service rooted at
// baseURL (e.g. "http://localhost:8080"). By default transient failures
// (503s, connection errors, truncated responses) are retried with
// jittered exponential backoff under a retry budget and a sliding-window
// circuit breaker; options tune or disable each layer. Solves are
// idempotent by construction, so retries never duplicate work
// server-side beyond a cache hit. 4xx responses are never retried.
func NewServerClient(baseURL string, opts ...ClientOption) *Client {
	return server.NewClient(baseURL, opts...)
}

// NewClusterClient returns a client for a somrm-serve cluster given every
// replica's base URL (the same set each replica was started with).
// Requests route to the replica owning the model's canonical hash on the
// cluster's consistent-hash ring and fail over along the ring when that
// replica is down, tripped, or shedding; results are bitwise identical
// whichever replica answers. The ClientOptions apply to every per-replica
// client. A single URL behaves exactly like NewServerClient. Call Close
// to release the client when done.
func NewClusterClient(urls []string, opts ...ClientOption) *ClusterClient {
	return cluster.NewClient(urls, cluster.WithClientOptions(opts...))
}

// ErrNoReplicas is returned by a ClusterClient built with zero replica
// URLs (an empty or all-blank server list): no request can be routed.
var ErrNoReplicas = cluster.ErrNoReplicas

// NewClusterNode builds one replica of a solver cluster: a Server whose
// ownership, peer cache-fill, and drain-handoff hooks are wired to the
// cluster ring (cmd/somrm-serve does this for the -self/-peers flags).
func NewClusterNode(opts ClusterNodeOptions) (*ClusterNode, error) {
	return cluster.NewNode(opts)
}

// Client resilience options for NewServerClient.
var (
	// WithClientHTTP sets the HTTP transport.
	WithClientHTTP = server.WithHTTPClient
	// WithClientRetryPolicy overrides the backoff schedule.
	WithClientRetryPolicy = server.WithRetryPolicy
	// WithClientRetryBudget overrides the retry budget (max tokens,
	// deposit ratio per success).
	WithClientRetryBudget = server.WithRetryBudget
	// WithClientBreaker overrides the circuit-breaker configuration.
	WithClientBreaker = server.WithBreaker
	// WithoutClientBreaker disables the circuit breaker.
	WithoutClientBreaker = server.WithoutBreaker
	// WithoutClientRetry disables retries, the budget, and the breaker.
	WithoutClientRetry = server.WithoutRetry
)

// PrepareModel precomputes the uniformized solver matrices for m so that
// repeated solves (and multi-time grids via AccumulatedRewardAt) skip the
// model-only setup. The server threads all solves through an LRU of these.
func PrepareModel(m *Model) (*PreparedModel, error) { return core.Prepare(m) }

// AccumulatedRewardAt computes accumulated-reward moments at every time in
// times with one shared randomization sweep: the coefficient vectors of
// Theorem 4 are time-independent, so a grid of time points costs one sweep
// to the largest truncation depth instead of one sweep per point.
func AccumulatedRewardAt(m *Model, times []float64, order int, opts *SolveOptions) ([]*Result, error) {
	return m.AccumulatedRewardAt(times, order, opts)
}

// AccumulatedRewardWithContext computes accumulated-reward moments with
// cooperative cancellation: the randomization loop polls ctx and aborts
// with its error on cancellation or deadline expiry.
func AccumulatedRewardWithContext(ctx context.Context, m *Model, t float64, order int, opts *SolveOptions) (*Result, error) {
	return m.AccumulatedRewardContext(ctx, t, order, opts)
}

// Compose builds the joint model of two independent models with additive
// rewards (Kronecker-sum structure process). The randomization solver
// never sweeps the product chain: each factor solves on its own and the
// moments combine by binomial convolution. Products above the
// materialization threshold come back matrix-free (no explicit joint
// generator), so only the randomization solver accepts them.
func Compose(a, b *Model) (*Model, error) { return core.Compose(a, b) }

// ComposeAll folds Compose over a list of independent models.
func ComposeAll(models ...*Model) (*Model, error) { return core.ComposeAll(models...) }

// ErrComposeImpulse identifies the rejection of impulse-reward components
// in Compose/ComposeAll (wrapped in the model validation error), so
// callers — the HTTP server in particular — can classify it as invalid
// input rather than an internal failure.
var ErrComposeImpulse = core.ErrComposeImpulse

// RawToCentral converts raw moments (index 0 = 1) to central moments.
func RawToCentral(raw []float64) ([]float64, error) { return core.RawToCentral(raw) }

// RawToCumulants converts raw moments to cumulants (indices 1..n).
func RawToCumulants(raw []float64) ([]float64, error) { return core.RawToCumulants(raw) }
