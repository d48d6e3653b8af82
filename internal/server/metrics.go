package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the solve
// latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Metrics holds the server's expvar-style counters. All fields are safe
// for concurrent update and may be read while the server is live.
type Metrics struct {
	// Requests counts /v1/solve requests accepted for processing.
	Requests atomic.Int64
	// Solves counts actual solver executions: requests that were neither
	// cache hits nor deduplicated onto another request's solve.
	Solves atomic.Int64
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// DedupShared counts requests served by another in-flight identical
	// request (single-flight followers).
	DedupShared atomic.Int64
	// Rejected counts requests turned away with 503 (full queue or
	// shutdown in progress), including whole batches rejected up front and
	// individual batch items that found the queue full.
	Rejected atomic.Int64
	// Failures counts requests that reached the solver and failed, or
	// timed out (batch items count individually).
	Failures atomic.Int64
	// Panics counts solver panics recovered by the worker pool and the
	// batch item runners. The process survives every one of them; each
	// surfaces to its caller as a sanitized 500.
	Panics atomic.Int64
	// BatchShed counts batch items refused admission to keep queue
	// headroom free for single solves (a subset of Rejected).
	BatchShed atomic.Int64
	// ShedQueueFull counts work refused instantly because the queue was at
	// capacity; ShedDeadline counts work that enqueued but whose deadline
	// expired before a worker picked it up. Both are queue-pressure
	// signals; the split tells operators whether the queue is too small
	// (full) or too slow to drain (deadline).
	ShedQueueFull atomic.Int64
	ShedDeadline  atomic.Int64
	// MemShed counts requests and batch items refused by the memory
	// admission gate (estimated working set over budget; a subset of
	// Rejected).
	MemShed atomic.Int64

	// Partials counts solves interrupted at their deadline that answered
	// 202 with a resume token; Resumes counts solves continued from a held
	// checkpoint to completion.
	Partials atomic.Int64
	Resumes  atomic.Int64

	// CacheRestored counts result-cache entries replayed from the
	// persistence journal at startup; PersistWrites counts journaled cache
	// inserts; PersistErrors counts journal write failures (each downgrades
	// persistence, never the solve).
	CacheRestored atomic.Int64
	PersistWrites atomic.Int64
	PersistErrors atomic.Int64

	// BatchRequests counts /v1/solve/batch requests accepted for
	// processing.
	BatchRequests atomic.Int64
	// PreparedHits / PreparedMisses count prepared-model cache lookups
	// (hits include joining an in-flight single-flight build).
	PreparedHits   atomic.Int64
	PreparedMisses atomic.Int64
	// BatchItems is the items-per-batch histogram; SweepPoints is the
	// time-points-per-shared-sweep histogram (randomization items only).
	BatchItems  sizeHistogram
	SweepPoints sizeHistogram

	// RouteLocal / RouteRemote classify solve and batch requests by ring
	// ownership of their model hash: RouteLocal counts requests this
	// replica owns, RouteRemote requests owned elsewhere (served here
	// anyway — after a peer cache fill attempt — because a client failed
	// over or routed freely). Both stay zero outside cluster mode.
	RouteLocal  atomic.Int64
	RouteRemote atomic.Int64
	// PeerFillHits / PeerFillMisses count peer cache-fill attempts for
	// non-owned requests: a hit adopted the owner's cached result instead
	// of solving locally; a miss (owner had no entry, or was unreachable)
	// fell through to a local solve.
	PeerFillHits   atomic.Int64
	PeerFillMisses atomic.Int64
	// HandoffEntries counts drain-handoff entries this replica accepted
	// from draining peers via POST /v1/peer/handoff.
	HandoffEntries atomic.Int64

	// SweepFormats counts solver executions by the matrix storage format
	// the randomization sweep streamed (core.Stats.MatrixFormat, labels
	// sweepFormatLabels) — the label operators watch to confirm the
	// structure-adaptive engine picked the band or block-tridiagonal
	// kernel for their models. A composed solve counts its largest
	// component's format. "csr64" counts solves run on the serial
	// reference oracle.
	SweepFormats labeledCounter
	// SweepBlocked counts solver executions whose sweep ran temporally
	// blocked (core.Stats.TemporalBlock > 1) — the signal operators watch
	// to confirm temporal blocking engaged for their models.
	SweepBlocked atomic.Int64
	// SweepKernels counts solver executions by the compute kernel the
	// sweep dispatched (core.Stats.SweepKernel, labels sweepKernelLabels)
	// — the signal operators watch to confirm the vectorized kernels are
	// actually serving solves (a fleet stuck on "scalar" means missing
	// hardware support or a forgotten SOMRM_NOSIMD/-no-simd switch; band
	// models run "avx2" at every order, while impulse models and
	// compact-CSR or QBD models at orders other than 3 always run
	// "scalar").
	SweepKernels labeledCounter

	// solveLatency tracks end-to-end solve time (queue wait included);
	// sweepLatency tracks only the randomization sweep inside the solver
	// (core.Stats.SweepNS), so operators can tell solver cost from queue
	// pressure when the two histograms diverge.
	solveLatency latencyHistogram
	sweepLatency latencyHistogram
}

// latencyHistogram is a fixed-bucket duration histogram sharing the
// latencyBucketsMS bounds; all fields are updated atomically.
type latencyHistogram struct {
	count atomic.Int64
	sumUS atomic.Int64 // microseconds, to keep the sum integral
	bins  [14]atomic.Int64
}

// Observe records one duration.
func (h *latencyHistogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.count.Add(1)
	h.sumUS.Add(int64(d / time.Microsecond))
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			h.bins[i].Add(1)
			return
		}
	}
	h.bins[len(latencyBucketsMS)].Add(1)
}

func (h *latencyHistogram) snapshot() LatencySnapshot {
	snap := LatencySnapshot{
		Count: h.count.Load(),
		SumMS: float64(h.sumUS.Load()) / 1000,
	}
	var cum int64
	for i := range h.bins {
		cum += h.bins[i].Load()
		b := HistogramBucket{Count: cum}
		if i < len(latencyBucketsMS) {
			b.LE = latencyBucketsMS[i]
		} else {
			b.Inf = true
		}
		snap.Buckets = append(snap.Buckets, b)
	}
	return snap
}

// sizeBucketBounds are the upper bounds of the size histograms (items per
// batch, time points per sweep); the final implicit bucket is +Inf.
var sizeBucketBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// sizeHistogram counts small integer sizes (batch fan-out widths, sweep
// grid lengths) into power-of-two-ish buckets.
type sizeHistogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [10]atomic.Int64
}

// Observe records one size observation.
func (h *sizeHistogram) Observe(n int) {
	h.count.Add(1)
	h.sum.Add(int64(n))
	for i, ub := range sizeBucketBounds {
		if int64(n) <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(sizeBucketBounds)].Add(1)
}

// SizeBucket is one cumulative-style bucket of a size histogram. LE is the
// bucket's inclusive upper bound (a count, not a duration); the +Inf bucket
// is rendered with LE = 0 and Inf = true.
type SizeBucket struct {
	LE    int64 `json:"le"`
	Inf   bool  `json:"inf,omitempty"`
	Count int64 `json:"count"`
}

// SizeSnapshot is a size histogram in the /metrics payload.
type SizeSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []SizeBucket `json:"buckets"`
}

func (h *sizeHistogram) snapshot() SizeSnapshot {
	snap := SizeSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		b := SizeBucket{Count: cum}
		if i < len(sizeBucketBounds) {
			b.LE = sizeBucketBounds[i]
		} else {
			b.Inf = true
		}
		snap.Buckets = append(snap.Buckets, b)
	}
	return snap
}

// ObserveLatency records one end-to-end solve latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.solveLatency.Observe(d)
}

// ObserveSweep records the randomization-sweep portion of one solve.
func (m *Metrics) ObserveSweep(d time.Duration) {
	m.sweepLatency.Observe(d)
}

// The label sets the /metrics JSON reports for the labeled counters:
// every label appears (zeros included), and observations outside the
// set are never exported.
var (
	sweepFormatLabels = []string{"band", "qbd", "csr32", "csr64"}
	sweepKernelLabels = []string{"avx2", "scalar"}
)

// labeledCounter counts events by label. The zero value is ready to use.
type labeledCounter struct {
	mu     sync.Mutex
	counts map[string]int64
}

// Observe counts one event under label.
func (c *labeledCounter) Observe(label string) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = make(map[string]int64)
	}
	c.counts[label]++
	c.mu.Unlock()
}

// snapshot returns the counts of exactly the given labels.
func (c *labeledCounter) snapshot(labels []string) map[string]int64 {
	out := make(map[string]int64, len(labels))
	c.mu.Lock()
	for _, l := range labels {
		out[l] = c.counts[l]
	}
	c.mu.Unlock()
	return out
}

// ObserveSweepBlocking records whether one solver execution ran its sweep
// temporally blocked (core.Stats.TemporalBlock > 1). Depths of 0 (no
// sweep) and 1 (unblocked) are ignored.
func (m *Metrics) ObserveSweepBlocking(depth int) {
	if depth > 1 {
		m.SweepBlocked.Add(1)
	}
}

// HistogramBucket is one cumulative-style histogram bucket in the
// /metrics payload. LE is the bucket's inclusive upper bound in
// milliseconds; the +Inf bucket is rendered with LE = 0 and Inf = true.
type HistogramBucket struct {
	LE    float64 `json:"le_ms"`
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"`
}

// LatencySnapshot is the solve latency histogram in the /metrics payload.
type LatencySnapshot struct {
	Count   int64             `json:"count"`
	SumMS   float64           `json:"sum_ms"`
	Buckets []HistogramBucket `json:"buckets"`
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	Requests    int64 `json:"requests"`
	Solves      int64 `json:"solves"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupShared int64 `json:"dedup_shared"`
	Rejected    int64 `json:"rejected"`
	Failures    int64 `json:"failures"`
	Panics      int64 `json:"panics_total"`
	BatchShed   int64 `json:"batch_shed_total"`

	// Load-shedding split: instant queue-full refusals vs deadlines that
	// expired in the queue, plus memory-admission sheds.
	ShedQueueFull int64 `json:"shed_queue_full_total"`
	ShedDeadline  int64 `json:"shed_deadline_total"`
	MemShed       int64 `json:"mem_shed_total"`

	// Durability counters: 202 partial responses and checkpoint resumes,
	// persisted-cache activity, and the live checkpoint/memory gauges.
	Partials      int64 `json:"partials_total"`
	Resumes       int64 `json:"resumes_total"`
	CacheRestored int64 `json:"cache_restored_total"`
	PersistWrites int64 `json:"persist_writes_total"`
	PersistErrors int64 `json:"persist_errors_total"`
	// CheckpointEntries is the live held-checkpoint count; MemInFlightBytes
	// and MemBudgetBytes expose the admission gate (all zero when the
	// features are off).
	CheckpointEntries int64 `json:"checkpoint_entries"`
	MemInFlightBytes  int64 `json:"mem_inflight_bytes"`
	MemBudgetBytes    int64 `json:"mem_budget_bytes"`

	BatchRequests  int64 `json:"batch_requests"`
	PreparedHits   int64 `json:"prepared_hits"`
	PreparedMisses int64 `json:"prepared_misses"`

	// Cluster counters: request routing by ring ownership, peer
	// cache-fill outcomes, and drain-handoff entries accepted from
	// draining peers. All zero outside cluster mode.
	RouteLocal     int64 `json:"route_local_total"`
	RouteRemote    int64 `json:"route_remote_total"`
	PeerFillHits   int64 `json:"peer_fill_hits_total"`
	PeerFillMisses int64 `json:"peer_fill_misses_total"`
	HandoffEntries int64 `json:"handoff_entries_total"`
	// PeerBreakers is the per-peer circuit-breaker state gauge ("closed",
	// "open", "half-open") keyed by peer URL; absent outside cluster mode.
	PeerBreakers map[string]string `json:"peer_breakers,omitempty"`

	// SweepFormats counts solver executions by the matrix storage format
	// the randomization sweep streamed, keyed by the core.Stats label
	// ("band", "qbd", "csr32", and "csr64" for the serial reference
	// oracle).
	SweepFormats map[string]int64 `json:"sweep_formats"`
	// SweepBlocked counts solver executions whose randomization sweep ran
	// with temporal blocking engaged (depth > 1).
	SweepBlocked int64 `json:"sweep_blocked_total"`
	// SweepKernels counts solver executions by the compute kernel the
	// sweep dispatched, keyed by the core.Stats label ("avx2", "scalar").
	SweepKernels map[string]int64 `json:"sweep_kernels"`

	QueueDepth      int     `json:"queue_depth"`
	Workers         int     `json:"workers"`
	CacheEntries    int     `json:"cache_entries"`
	PreparedEntries int     `json:"prepared_entries"`
	UptimeSeconds   float64 `json:"uptime_seconds"`

	BatchItems   SizeSnapshot    `json:"batch_items"`
	SweepPoints  SizeSnapshot    `json:"sweep_points"`
	SolveLatency LatencySnapshot `json:"solve_latency"`
	SweepLatency LatencySnapshot `json:"sweep_latency"`
}

// Snapshot returns a consistent-enough point-in-time copy of the
// counters (each counter is read atomically; the set is not fenced).
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Requests:       m.Requests.Load(),
		Solves:         m.Solves.Load(),
		CacheHits:      m.CacheHits.Load(),
		CacheMisses:    m.CacheMisses.Load(),
		DedupShared:    m.DedupShared.Load(),
		Rejected:       m.Rejected.Load(),
		Failures:       m.Failures.Load(),
		Panics:         m.Panics.Load(),
		BatchShed:      m.BatchShed.Load(),
		ShedQueueFull:  m.ShedQueueFull.Load(),
		ShedDeadline:   m.ShedDeadline.Load(),
		MemShed:        m.MemShed.Load(),
		Partials:       m.Partials.Load(),
		Resumes:        m.Resumes.Load(),
		CacheRestored:  m.CacheRestored.Load(),
		PersistWrites:  m.PersistWrites.Load(),
		PersistErrors:  m.PersistErrors.Load(),
		BatchRequests:  m.BatchRequests.Load(),
		PreparedHits:   m.PreparedHits.Load(),
		PreparedMisses: m.PreparedMisses.Load(),
		RouteLocal:     m.RouteLocal.Load(),
		RouteRemote:    m.RouteRemote.Load(),
		PeerFillHits:   m.PeerFillHits.Load(),
		PeerFillMisses: m.PeerFillMisses.Load(),
		HandoffEntries: m.HandoffEntries.Load(),
		BatchItems:     m.BatchItems.snapshot(),
		SweepPoints:    m.SweepPoints.snapshot(),
		SweepFormats:   m.SweepFormats.snapshot(sweepFormatLabels),
		SweepBlocked:   m.SweepBlocked.Load(),
		SweepKernels:   m.SweepKernels.snapshot(sweepKernelLabels),
	}
	snap.SolveLatency = m.solveLatency.snapshot()
	snap.SweepLatency = m.sweepLatency.snapshot()
	return snap
}
