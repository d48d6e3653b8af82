package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"somrm/internal/core"
	"somrm/internal/spec"
)

func postBatch(t *testing.T, url string, req *BatchRequest) (*http.Response, *BatchResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response body: %v\n%s", err, buf.String())
		}
	}
	return resp, &out, buf.String()
}

// prewarm puts sp's prepared model in s's prepared-model cache, so a later
// batch on it builds nothing: a cold batch's build is a pool task, which
// a test holding every worker would block.
func prewarm(t *testing.T, s *Server, sp *spec.Model) {
	t.Helper()
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.prepare(context.Background(), hex.EncodeToString(h[:]), func() (*core.Prepared, error) { return buildPrepared(sp) }, sp, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEndToEnd(t *testing.T) {
	s := New(Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	sp := testSpec(0)
	model, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.5, 1, 1.5, 2}
	want, err := model.AccumulatedRewardAt(grid, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	req := &BatchRequest{Model: sp, Items: []BatchItem{
		{Times: grid, Order: 3},
		{Times: []float64{1}, Order: 2, Method: MethodODE},
		{Times: []float64{1}, Order: 2, Method: MethodSimulation, Sim: &SimParams{Seed: 7, Reps: 5000}},
		{Times: []float64{2}, Order: 4, BoundsAt: []float64{0, 2}},
	}}
	resp, out, raw := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Items) != 4 {
		t.Fatalf("want 4 item results, got %d", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Status != BatchStatusOK {
			t.Fatalf("item %d: status %q (%s)", i, item.Status, item.Error)
		}
	}
	if out.PreparedCached {
		t.Error("first batch reported a prepared-cache hit")
	}

	// Item 0: the shared sweep must match the core solver bitwise.
	if got := out.Items[0].Points; len(got) != len(grid) {
		t.Fatalf("item 0: %d points, want %d", len(got), len(grid))
	}
	for k, pt := range out.Items[0].Points {
		if pt.T != grid[k] {
			t.Errorf("item 0 point %d: t=%g want %g", k, pt.T, grid[k])
		}
		if !reflect.DeepEqual(pt.Moments, want[k].Moments) {
			t.Errorf("item 0 point %d: moments %v want %v", k, pt.Moments, want[k].Moments)
		}
		if pt.Stats == nil || pt.Stats.G == 0 {
			t.Errorf("item 0 point %d: missing stats", k)
		}
	}
	// All points of one randomization grid share a single sweep: the
	// MatVecs total is identical across points (it is the sweep's total).
	if a, b := out.Items[0].Points[0].Stats.MatVecs, out.Items[0].Points[3].Stats.MatVecs; a != b {
		t.Errorf("points report different sweep totals: %d vs %d", a, b)
	}
	// Item 3: bounds attached per point.
	if pts := out.Items[3].Points; len(pts) != 1 || len(pts[0].Bounds) != 2 {
		t.Errorf("item 3: bounds missing: %+v", pts)
	}

	// A second identical batch hits the prepared-model cache.
	resp2, out2, raw2 := postBatch(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	if !out2.PreparedCached {
		t.Error("second batch missed the prepared-model cache")
	}
	if s.metrics.PreparedHits.Load() == 0 {
		t.Error("prepared-cache hit not counted")
	}

	// Batch metrics recorded.
	snap := s.metrics.Snapshot()
	if snap.BatchRequests != 2 {
		t.Errorf("batch_requests = %d, want 2", snap.BatchRequests)
	}
	if snap.BatchItems.Count != 2 || snap.BatchItems.Sum != 8 {
		t.Errorf("batch_items histogram: %+v", snap.BatchItems)
	}
	// Three randomization items per batch: grids of 4, 1 points (items 0, 3).
	if snap.SweepPoints.Count != 4 || snap.SweepPoints.Sum != 10 {
		t.Errorf("sweep_points histogram: %+v", snap.SweepPoints)
	}
	if snap.Solves != 8 {
		t.Errorf("solves = %d, want 8 (one per item)", snap.Solves)
	}
}

// TestBatchSharesOneSweep proves the tentpole's efficiency claim at the
// solver level: a 16-point grid through the batch endpoint performs one
// coefficient-vector sweep, not sixteen.
func TestBatchSharesOneSweep(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	grid := make([]float64, 16)
	for i := range grid {
		grid[i] = 0.5 * float64(i+1)
	}
	resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(0), Items: []BatchItem{{Times: grid, Order: 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	shared := out.Items[0].Points[0].Stats.MatVecs

	var looped int64
	sp := testSpec(0)
	model, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range grid {
		res, err := model.AccumulatedReward(tt, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		looped += res.Stats.MatVecs
	}
	if shared*2 >= looped {
		t.Errorf("shared sweep did %d matvecs vs %d looped: no sharing", shared, looped)
	}
	t.Logf("matvecs: shared sweep %d, per-point loop %d", shared, looped)
}

// TestBatchPartialResults: one item times out, the others still succeed —
// per-item status, not all-or-nothing.
func TestBatchPartialResults(t *testing.T) {
	s := New(Options{Workers: 2})
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		if item.Order == 9 { // marker for the slow item
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(0), Items: []BatchItem{
		{Times: []float64{1}, Order: 2},
		{Times: []float64{1}, Order: 9, TimeoutMS: 20},
		{Times: []float64{2}, Order: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := out.Items[0].Status; got != BatchStatusOK {
		t.Errorf("item 0: %q (%s)", got, out.Items[0].Error)
	}
	if got := out.Items[1].Status; got != BatchStatusError {
		t.Errorf("timed-out item 1: status %q, want error", got)
	}
	if !strings.Contains(out.Items[1].Error, "deadline") {
		t.Errorf("item 1 diagnostic: %q", out.Items[1].Error)
	}
	if got := out.Items[2].Status; got != BatchStatusOK {
		t.Errorf("item 2: %q (%s)", got, out.Items[2].Error)
	}
	if s.metrics.Failures.Load() != 1 {
		t.Errorf("failures = %d, want 1", s.metrics.Failures.Load())
	}
}

// TestBatchOversizedRejectedUpFront is the regression test for the
// half-enqueued batch: a batch whose item count exceeds the queue capacity
// must be rejected with 503 before any item is enqueued, so no partial
// work runs and the queue is untouched.
func TestBatchOversizedRejectedUpFront(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 2})
	var executed atomic.Int64
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		executed.Add(1)
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	items := make([]BatchItem, 3) // > QueueSize
	for i := range items {
		items[i] = BatchItem{Times: []float64{1}, Order: 2}
	}
	resp, _, raw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(0), Items: items})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "queue") {
		t.Errorf("diagnostic missing: %s", raw)
	}
	if got := executed.Load(); got != 0 {
		t.Errorf("%d items executed before the rejection, want 0", got)
	}
	if got := s.metrics.Solves.Load(); got != 0 {
		t.Errorf("solves = %d, want 0 (nothing enqueued)", got)
	}
	if got := s.pool.Depth(); got != 0 {
		t.Errorf("queue depth = %d after rejection, want 0", got)
	}
	if s.metrics.Rejected.Load() == 0 {
		t.Error("rejection not counted")
	}

	// A batch that fits must still go through on the same server.
	resp2, out2, raw2 := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(0), Items: items[:2]})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("in-capacity batch: status %d: %s", resp2.StatusCode, raw2)
	}
	for i, item := range out2.Items {
		if item.Status != BatchStatusOK {
			t.Errorf("item %d: %q (%s)", i, item.Status, item.Error)
		}
	}
}

// TestBatchItemQueueFull: when the queue fills up mid-batch because of
// competing traffic, affected items fail individually while the rest of the
// batch completes.
func TestBatchItemQueueFull(t *testing.T) {
	s := New(Options{Workers: 1, QueueSize: 4})
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
	prewarm(t, s, testSpec(9))

	// Occupy the worker and fill the whole queue with single solves.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(i), T: 1, Order: 2}))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (started.Load() < 1 || s.pool.Depth() < 4) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started.Load() < 1 || s.pool.Depth() < 4 {
		t.Fatalf("setup: %d started, depth %d", started.Load(), s.pool.Depth())
	}

	// The batch passes the up-front size check (2 <= 4) but every item
	// finds the queue full.
	resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(9), Items: []BatchItem{
		{Times: []float64{1}, Order: 2},
		{Times: []float64{2}, Order: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	for i, item := range out.Items {
		if item.Status != BatchStatusError || !strings.Contains(item.Error, "queue full") {
			t.Errorf("item %d: status %q error %q, want queue-full error", i, item.Status, item.Error)
		}
	}

	close(gate)
	wg.Wait()
}

func TestBatchBadRequests(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	manyTimes := make([]float64, maxBatchTimes+1)
	cases := map[string]*BatchRequest{
		"missing model": {Items: []BatchItem{{Times: []float64{1}, Order: 2}}},
		"empty batch":   {Model: testSpec(0)},
		"empty grid":    {Model: testSpec(0), Items: []BatchItem{{Order: 2}}},
		"negative t":    {Model: testSpec(0), Items: []BatchItem{{Times: []float64{-1}, Order: 2}}},
		"huge order":    {Model: testSpec(0), Items: []BatchItem{{Times: []float64{1}, Order: 99}}},
		"bad method":    {Model: testSpec(0), Items: []BatchItem{{Times: []float64{1}, Order: 2, Method: "magic"}}},
		"bad epsilon":   {Model: testSpec(0), Items: []BatchItem{{Times: []float64{1}, Order: 2, Epsilon: 2}}},
		"oversize grid": {Model: testSpec(0), Items: []BatchItem{{Times: manyTimes, Order: 2}}},
		"bad model": {Model: &spec.Model{States: 1, Rates: []float64{1}, Variances: []float64{-1}, Initial: []float64{1}},
			Items: []BatchItem{{Times: []float64{1}, Order: 2}}},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			resp, _, raw := postBatch(t, ts.URL, req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d (%s), want 400", resp.StatusCode, raw)
			}
		})
	}
}

// TestBatchMatchesLoopedSingleSolves is the quick property: for random
// models and grids, the batch response is bitwise identical to looping
// POST /v1/solve over the grid's points, because a single solve is a
// one-point batch item through the same pipeline. Each single solve
// matches the batch's one-point item at its t in moments, stats (all but
// the wall-clock sweep_ns) and bounds, and the grid item's point at that
// t in all of them except matvecs, the shared sweep's total. A grid whose
// bounds fail (order 1 has too few moments for them) fails each item with
// the text of the first failing single solve's 400.
func TestBatchMatchesLoopedSingleSolves(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: -1}) // no result cache: every single solve runs
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := testSpec(int(seed&7) + 1)
		order := 1 + rng.Intn(4)
		grid := make([]float64, 1+rng.Intn(6))
		for i := range grid {
			grid[i] = rng.Float64() * 4
		}
		boundsAt := []float64{rng.Float64() * 2, 2 + rng.Float64()*6}
		items := []BatchItem{{Times: grid, Order: order, BoundsAt: boundsAt}}
		for _, tt := range grid {
			items = append(items, BatchItem{Times: []float64{tt}, Order: order, BoundsAt: boundsAt})
		}

		resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: sp, Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Logf("batch status %d: %s", resp.StatusCode, raw)
			return false
		}
		// same reports whether a single solve's point matches a batch point.
		same := func(tt float64, single *SolveResponse, pt BatchPoint, matVecs bool) bool {
			if !reflect.DeepEqual(single.Moments, pt.Moments) || !reflect.DeepEqual(single.Bounds, pt.Bounds) {
				t.Logf("seed %d t=%g: batch %v %v != single %v %v", seed, tt, pt.Moments, pt.Bounds, single.Moments, single.Bounds)
				return false
			}
			if single.Stats == nil || pt.Stats == nil {
				t.Logf("seed %d t=%g: missing stats", seed, tt)
				return false
			}
			a, b := *single.Stats, *pt.Stats
			a.SweepNS, b.SweepNS = 0, 0
			if !matVecs {
				a.MatVecs = b.MatVecs
			}
			if a != b {
				t.Logf("seed %d t=%g: batch stats %+v != single %+v", seed, tt, b, a)
				return false
			}
			return true
		}
		gridItem := out.Items[0]
		firstErr := ""
		for k, tt := range grid {
			point := out.Items[1+k]
			sresp, single, sraw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: sp, T: tt, Order: order, BoundsAt: boundsAt}))
			if sresp.StatusCode != http.StatusOK {
				var e struct{ Error string }
				if sresp.StatusCode != http.StatusBadRequest || json.Unmarshal([]byte(sraw), &e) != nil {
					t.Logf("single status %d: %s", sresp.StatusCode, sraw)
					return false
				}
				if point.Status != BatchStatusError || point.Error != e.Error {
					t.Logf("seed %d t=%g: one-point item %q %q, single error %q", seed, tt, point.Status, point.Error, e.Error)
					return false
				}
				if firstErr == "" {
					firstErr = e.Error
				}
				continue
			}
			if point.Status != BatchStatusOK || !same(tt, single, point.Points[0], true) {
				t.Logf("seed %d t=%g: one-point item %q %q", seed, tt, point.Status, point.Error)
				return false
			}
			if gridItem.Status == BatchStatusOK && !same(tt, single, gridItem.Points[k], false) {
				return false
			}
		}
		if (gridItem.Status != BatchStatusOK || firstErr != "") && gridItem.Error != firstErr {
			t.Logf("seed %d: grid item error %q, first single error %q", seed, gridItem.Error, firstErr)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if !testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
