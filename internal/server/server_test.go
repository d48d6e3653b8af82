package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// testSpec returns a small two-state model whose recovery rate varies
// with k, giving distinct solver inputs per k.
func testSpec(k int) *spec.Model {
	return &spec.Model{
		States: 2,
		Transitions: []spec.Transition{
			{From: 0, To: 1, Rate: 2},
			{From: 1, To: 0, Rate: 3 + float64(k)/7},
		},
		Rates:     []float64{1.5, -0.5},
		Variances: []float64{0.2, 1},
		Initial:   []float64{1, 0},
	}
}

func solveBody(t *testing.T, req *SolveRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSolve(t *testing.T, url string, body []byte) (*http.Response, *SolveResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response body: %v\n%s", err, buf.String())
		}
	}
	return resp, &out, buf.String()
}

func TestSolveEndToEndAndCache(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	sp := testSpec(0)
	model, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.AccumulatedReward(1.5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	body := solveBody(t, &SolveRequest{Model: sp, T: 1.5, Order: 3, BoundsAt: []float64{0, 1}})
	resp, out, raw := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if out.Cached {
		t.Error("first request reported cached")
	}
	if len(out.Moments) != 4 {
		t.Fatalf("want 4 moments, got %v", out.Moments)
	}
	for j, m := range want.Moments {
		if math.Abs(out.Moments[j]-m) > 1e-12*(1+math.Abs(m)) {
			t.Errorf("moment %d: %g want %g", j, out.Moments[j], m)
		}
	}
	if out.Stats == nil || out.Stats.G == 0 {
		t.Errorf("missing solver stats: %+v", out.Stats)
	}
	if len(out.Bounds) != 2 || out.Bounds[0].Lower > out.Bounds[0].Upper {
		t.Errorf("bad bounds: %+v", out.Bounds)
	}

	solvesAfterFirst := s.metrics.Solves.Load()
	resp2, out2, raw2 := postSolve(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	if !out2.Cached {
		t.Error("second identical request not served from cache")
	}
	if got := s.metrics.Solves.Load(); got != solvesAfterFirst {
		t.Errorf("cache hit re-entered the solver: %d -> %d solves", solvesAfterFirst, got)
	}
	if s.metrics.CacheHits.Load() != 1 {
		t.Errorf("cache hits = %d, want 1", s.metrics.CacheHits.Load())
	}
	for j := range out.Moments {
		if out.Moments[j] != out2.Moments[j] {
			t.Errorf("cached moment %d differs", j)
		}
	}
}

// TestConcurrentDedup is the headline concurrency test: 64 simultaneous
// requests over 8 distinct models, all responses correct, with strictly
// fewer solver executions than requests and cache hits bypassing the
// solver entirely.
func TestConcurrentDedup(t *testing.T) {
	const distinct = 8
	const perModel = 8
	const total = distinct * perModel

	s := New(Options{Workers: 4, QueueSize: total})
	gate := make(chan struct{})
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		<-gate // hold solves until the whole wave is in flight
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	wantMoments := make([][]float64, distinct)
	bodies := make([][]byte, distinct)
	for k := 0; k < distinct; k++ {
		sp := testSpec(k)
		model, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.AccumulatedReward(2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantMoments[k] = res.Moments
		bodies[k] = solveBody(t, &SolveRequest{Model: sp, T: 2, Order: 3})
	}

	run := func() [total]*SolveResponse {
		var out [total]*SolveResponse
		var wg sync.WaitGroup
		var failures atomic.Int64
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body, raw := postSolve(t, ts.URL, bodies[i%distinct])
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
					return
				}
				out[i] = body
			}(i)
		}
		// Give the wave time to pile onto the flight group, then release.
		time.Sleep(100 * time.Millisecond)
		close(gate)
		wg.Wait()
		if failures.Load() > 0 {
			t.FailNow()
		}
		return out
	}
	first := run()

	for i, got := range first {
		want := wantMoments[i%distinct]
		for j := range want {
			if math.Abs(got.Moments[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
				t.Fatalf("request %d moment %d: %g want %g", i, j, got.Moments[j], want[j])
			}
		}
	}

	solves := s.metrics.Solves.Load()
	if solves >= total {
		t.Errorf("no deduplication: %d solves for %d requests", solves, total)
	}
	if solves < distinct {
		t.Errorf("impossible: %d solves for %d distinct models", solves, distinct)
	}
	dedup := s.metrics.DedupShared.Load()
	if dedup == 0 {
		t.Error("no requests shared an in-flight solve")
	}
	t.Logf("%d requests -> %d solves, %d deduped", total, solves, dedup)

	// Second identical wave: all cache hits, no new solver entries.
	gate = make(chan struct{}) // not used: cache hits never reach solve
	close(gate)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body, raw := postSolve(t, ts.URL, bodies[i%distinct])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if !body.Cached {
				t.Errorf("request %d missed the cache", i)
			}
		}(i)
	}
	wg.Wait()
	if got := s.metrics.Solves.Load(); got != solves {
		t.Errorf("cache hits re-entered the solver: %d -> %d", solves, got)
	}
	if hits := s.metrics.CacheHits.Load(); hits < total {
		t.Errorf("cache hits = %d, want >= %d", hits, total)
	}
}

// TestGracefulShutdownUnderLoad: in-flight solves complete with 200,
// queued solves and post-shutdown arrivals get a clean 503.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	const workers = 2
	const queued = 4
	s := New(Options{Workers: workers, QueueSize: 16})
	gate := make(chan struct{})
	var started atomic.Int64
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		started.Add(1)
		<-gate
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		cached bool
	}
	results := make([]chan result, workers+queued)
	for i := range results {
		results[i] = make(chan result, 1)
		go func(i int) {
			resp, body, _ := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(i), T: 1, Order: 2}))
			results[i] <- result{resp.StatusCode, body.Cached}
		}(i)
	}
	// Wait until both workers hold an in-flight solve and the rest are
	// queued behind them.
	deadline := time.Now().Add(5 * time.Second)
	for (started.Load() < workers || s.pool.Depth() < queued) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() != workers || s.pool.Depth() != queued {
		t.Fatalf("setup: %d in flight (want %d), %d queued (want %d)",
			started.Load(), workers, s.pool.Depth(), queued)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// A request arriving after shutdown began is rejected immediately.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	resp, _, _ := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(99), T: 1, Order: 2}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown request: status %d, want 503", resp.StatusCode)
	}

	close(gate) // let the in-flight solves finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	var ok200, ok503 int
	for i := range results {
		r := <-results[i]
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusServiceUnavailable:
			ok503++
		default:
			t.Errorf("request %d: unexpected status %d", i, r.status)
		}
	}
	if ok200 != workers {
		t.Errorf("%d in-flight requests completed, want %d", ok200, workers)
	}
	if ok503 != queued {
		t.Errorf("%d queued requests got 503, want %d", ok503, queued)
	}
	if got := started.Load(); got != workers {
		t.Errorf("queued work ran after shutdown: %d solves started, want %d", got, workers)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 1})
	gate := make(chan struct{})
	var started atomic.Int64
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		started.Add(1)
		<-gate
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	codes := make([]chan int, 2)
	for i := range codes {
		codes[i] = make(chan int, 1)
	}
	go func() {
		resp, _, _ := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2}))
		codes[0] <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go func() {
		resp, _, _ := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(1), T: 1, Order: 2}))
		codes[1] <- resp.StatusCode
	}()
	for s.pool.Depth() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(2), T: 1, Order: 2}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overflow request: status %d (%s), want 503", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "queue full") {
		t.Errorf("overflow diagnostic missing: %s", raw)
	}
	if s.metrics.Rejected.Load() == 0 {
		t.Error("rejection not counted")
	}

	close(gate)
	for i := range codes {
		if code := <-codes[i]; code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
}

func TestSolveTimeout(t *testing.T) {
	s := New(Options{Workers: 1})
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, TimeoutMS: 20}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	if s.metrics.Failures.Load() != 1 {
		t.Errorf("failures = %d, want 1", s.metrics.Failures.Load())
	}
}

// TestSolveTimeoutRealSolver exercises the core cancellation hook through
// the whole stack: a genuinely heavy solve against a 1 ms deadline.
func TestSolveTimeoutRealSolver(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	heavy := &spec.Model{States: 2, Transitions: []spec.Transition{
		{From: 0, To: 1, Rate: 4000},
		{From: 1, To: 0, Rate: 5000},
	}, Rates: []float64{1, 0}, Variances: []float64{0.3, 0.3}, Initial: []float64{1, 0}}
	// qt = 9000*400 = 3.6e6 randomization steps: far more than 1 ms of work.
	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: heavy, T: 400, Order: 6, TimeoutMS: 1}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d (%s), want 504", resp.StatusCode, raw)
	}
}

func TestSolveMethodsAgree(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	sp := testSpec(3)
	get := func(req *SolveRequest) *SolveResponse {
		t.Helper()
		resp, out, raw := postSolve(t, ts.URL, solveBody(t, req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return out
	}
	rand := get(&SolveRequest{Model: sp, T: 1, Order: 2})
	ode := get(&SolveRequest{Model: sp, T: 1, Order: 2, Method: MethodODE})
	simr := get(&SolveRequest{Model: sp, T: 1, Order: 2, Method: MethodSimulation, Sim: &SimParams{Seed: 7, Reps: 20000}})

	for j := 0; j <= 2; j++ {
		if math.Abs(rand.Moments[j]-ode.Moments[j]) > 1e-6*(1+math.Abs(rand.Moments[j])) {
			t.Errorf("ode moment %d: %g vs randomization %g", j, ode.Moments[j], rand.Moments[j])
		}
	}
	if len(simr.StdErr) != 3 {
		t.Fatalf("simulation std errors missing: %+v", simr)
	}
	for j := 1; j <= 2; j++ {
		tol := 6*simr.StdErr[j] + 1e-9
		if math.Abs(simr.Moments[j]-rand.Moments[j]) > tol {
			t.Errorf("simulation moment %d: %g vs %g (tol %g)", j, simr.Moments[j], rand.Moments[j], tol)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	cases := map[string]string{
		"malformed json":  `{nope`,
		"missing model":   `{"t": 1, "order": 2}`,
		"negative t":      mustJSON(t, &SolveRequest{Model: testSpec(0), T: -1, Order: 2}),
		"huge order":      mustJSON(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 99}),
		"bad method":      mustJSON(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, Method: "magic"}),
		"bad epsilon":     mustJSON(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, Epsilon: 2}),
		"bad ode method":  mustJSON(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, Method: "ode", ODE: &ODEParams{Method: "euler"}}),
		"bad sim reps":    mustJSON(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, Method: "simulation", Sim: &SimParams{Reps: 1}}),
		"invalid spec":    `{"model": {"states": 2, "transitions": [{"from":0,"to":0,"rate":1}], "rates":[1,1], "variances":[0,0], "initial":[1,0]}, "t": 1, "order": 2}`,
		"unbuildable":     `{"model": {"states": 2, "rates":[1], "variances":[0,0], "initial":[1,0]}, "t": 1, "order": 2}`,
		"bad bound point": `{"model": {"states":1, "rates":[1], "variances":[0], "initial":[1]}, "t": 1, "order": 2, "bounds_at": [1e999]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			resp, _, raw := postSolve(t, ts.URL, []byte(body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d (%s), want 400", resp.StatusCode, raw)
			}
			if !strings.Contains(raw, "error") {
				t.Errorf("diagnostic missing: %s", raw)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	// One real solve so the metrics have content.
	r2, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2}))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", r2.StatusCode, raw)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 1 || snap.Solves != 1 || snap.CacheMisses != 1 {
		t.Errorf("counters: %+v", snap)
	}
	if snap.Workers != 1 || snap.CacheEntries != 1 {
		t.Errorf("gauges: %+v", snap)
	}
	if snap.SolveLatency.Count != 1 {
		t.Errorf("latency histogram empty: %+v", snap.SolveLatency)
	}
	// The randomization solve must have been counted under its resolved
	// matrix storage format, whichever the detector picked.
	var formatTotal int64
	for _, format := range []string{"band", "csr32"} {
		formatTotal += snap.SweepFormats[format]
	}
	if formatTotal != 1 {
		t.Errorf("sweep_formats = %v, want exactly one counted sweep", snap.SweepFormats)
	}
	// ... and under its dispatched compute kernel ("avx2" on capable
	// hosts unless kill-switched, "scalar" otherwise), which the solve
	// response's stats block also reports.
	if total := snap.SweepKernels["avx2"] + snap.SweepKernels["scalar"]; total != 1 {
		t.Errorf("sweep_kernels = %v, want exactly one counted sweep", snap.SweepKernels)
	}
	if !strings.Contains(raw, `"sweep_kernel":"avx2"`) && !strings.Contains(raw, `"sweep_kernel":"scalar"`) {
		t.Errorf("solve stats missing sweep_kernel: %s", raw)
	}
	last := snap.SolveLatency.Buckets[len(snap.SolveLatency.Buckets)-1]
	if !last.Inf || last.Count != 1 {
		t.Errorf("cumulative +Inf bucket: %+v", last)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", hresp.StatusCode)
	}
}

// TestSmallModelSweepFormatMetric pins the production sweep path at
// small N as operators see it: a default-configured server solving a
// 33-state birth-death model (the Table 1 size, far below the parallel
// threshold) counts the solve under the fused kernel's band storage, not
// under the compact CSR the serial reference oracle streams.
func TestSmallModelSweepFormatMetric(t *testing.T) {
	sp := birthDeathSpec(33)
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	resp, out, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: sp, T: 1, Order: 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	if out.Stats == nil || out.Stats.MatrixFormat != "band" {
		t.Errorf("solve stats = %+v, want matrix_format band", out.Stats)
	}
	snap := s.metrics.Snapshot()
	if snap.SweepFormats["band"] != 1 || snap.SweepFormats["csr32"] != 0 {
		t.Errorf("sweep_formats = %v, want one band sweep and no csr32", snap.SweepFormats)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	// Same model with permuted transitions and spelled-out defaults must
	// collide on one cache entry.
	a := &SolveRequest{Model: testSpec(0), T: 1, Order: 2}
	perm := testSpec(0)
	perm.Transitions[0], perm.Transitions[1] = perm.Transitions[1], perm.Transitions[0]
	b := &SolveRequest{Model: perm, T: 1, Order: 2, Epsilon: 1e-9, Method: MethodRandomization}
	if err := a.normalize(12); err != nil {
		t.Fatal(err)
	}
	if err := b.normalize(12); err != nil {
		t.Fatal(err)
	}
	ka, err := a.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("equivalent requests hash to different keys")
	}
	c := &SolveRequest{Model: testSpec(0), T: 1, Order: 3}
	if err := c.normalize(12); err != nil {
		t.Fatal(err)
	}
	kc, err := c.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("different order hashes to the same key")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2)
	r := &SolveResponse{}
	c.Put("a", "", r)
	c.Put("b", "", r)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", "", r) // evicts b (least recently used after the Get of a)
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing", k)
		}
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	disabled := newLRU(-1)
	disabled.Put("x", "", r)
	if _, ok := disabled.Get("x"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: %d, want 405", resp.StatusCode)
	}
}

func TestLargeModelSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("large model")
	}
	// A birth-death chain large enough to exercise the parallel matvec
	// path through the server.
	n := 2000
	sp := &spec.Model{States: n, Rates: make([]float64, n), Variances: make([]float64, n), Initial: make([]float64, n)}
	for i := 0; i < n; i++ {
		sp.Rates[i] = float64(i) / float64(n)
		sp.Variances[i] = 0.1
		if i+1 < n {
			sp.Transitions = append(sp.Transitions,
				spec.Transition{From: i, To: i + 1, Rate: 1.0},
				spec.Transition{From: i + 1, To: i, Rate: 2.0})
		}
	}
	sp.Initial[0] = 1
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())
	resp, out, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: sp, T: 5, Order: 2}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if out.Moments[1] <= 0 {
		t.Errorf("mean reward %g, want > 0", out.Moments[1])
	}
	if fmt.Sprintf("%d", out.Stats.G) == "0" {
		t.Error("stats missing")
	}
}

// TestSolveLadderStats: warm solves at distinct times on one cached
// prepared model start from its state ladder. The solve stats report the
// start iteration (omitted while it is 0) and /metrics counts the ladder's
// misses, captures and hits.
func TestSolveLadderStats(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// q = 3, so q·t = 180..213: left truncation points near 90.
	var starts []int
	for _, tt := range []float64{60, 70, 71} {
		resp, out, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: tt, Order: 3}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("t=%g: status %d: %s", tt, resp.StatusCode, raw)
		}
		if out.Stats.StartIteration == 0 && strings.Contains(raw, "start_iteration") {
			t.Errorf("t=%g: start_iteration 0 on the wire: %s", tt, raw)
		}
		starts = append(starts, out.Stats.StartIteration)
	}
	if starts[0] != 0 || starts[1] != 0 || starts[2] == 0 {
		t.Fatalf("start iterations %v, want 0 (cold), 0 (miss, capture), > 0 (hit)", starts)
	}
	snap := s.metrics.Snapshot()
	if want := map[string]int64{"hit": 1, "miss": 1, "capture": 1}; !reflect.DeepEqual(snap.SweepLadder, want) {
		t.Fatalf("sweep_ladder = %v, want %v", snap.SweepLadder, want)
	}
}
