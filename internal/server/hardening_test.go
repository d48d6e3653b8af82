package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/core"
)

// secretPanicValue stands in for internal state a panic message could
// leak; no HTTP response body may ever contain it.
const secretPanicValue = "secret-internal-detail-xyzzy"

func TestSolvePanicIsolated(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	var panicking atomic.Bool
	panicking.Store(true)
	real := s.solveItem
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		if panicking.Load() {
			panic(secretPanicValue)
		}
		return real(ctx, prep, item)
	}

	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", resp.StatusCode, raw)
	}
	if strings.Contains(raw, secretPanicValue) {
		t.Errorf("panic value leaked to the client: %s", raw)
	}
	if !strings.Contains(raw, "internal panic") {
		t.Errorf("expected sanitized panic diagnostic, got %s", raw)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panics_total = %d, want 1", got)
	}

	// The process and the worker survived: the same server keeps serving.
	panicking.Store(false)
	resp2, out, raw2 := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(1), T: 1, Order: 2}))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic solve: status %d: %s", resp2.StatusCode, raw2)
	}
	if len(out.Moments) == 0 {
		t.Error("post-panic solve returned no moments")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", hresp.StatusCode)
	}
}

func TestWorkerSurvivesRepeatedPanics(t *testing.T) {
	// A single worker takes every panic; if recovery ever failed the pool
	// would deadlock (no worker left to drain the queue) and later
	// requests would 503 or hang.
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	var panicking atomic.Bool
	panicking.Store(true)
	real := s.solveItem
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		if panicking.Load() {
			panic("boom")
		}
		return real(ctx, prep, item)
	}

	const n = 5
	for i := 0; i < n; i++ {
		// Distinct models so no request is served from cache or dedup.
		resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(i), T: 1, Order: 2}))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500; body %s", i, resp.StatusCode, raw)
		}
	}
	if got := s.metrics.Panics.Load(); got != n {
		t.Errorf("panics_total = %d, want %d", got, n)
	}

	panicking.Store(false)
	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(n), T: 1, Order: 2}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after %d panics on the only worker: status %d: %s", n, resp.StatusCode, raw)
	}
}

func TestBatchItemPanicIsolated(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		if item.Order == 3 {
			panic(secretPanicValue)
		}
		return []BatchPoint{{T: item.Times[0], Moments: []float64{1, 2}}}, nil
	}

	req := &BatchRequest{Model: testSpec(0), Items: []BatchItem{
		{Times: []float64{1}, Order: 2},
		{Times: []float64{1}, Order: 3}, // panics
		{Times: []float64{2}, Order: 2},
	}}
	resp, out, raw := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 (items fail independently): %s", resp.StatusCode, raw)
	}
	if strings.Contains(raw, secretPanicValue) {
		t.Errorf("panic value leaked into the batch response: %s", raw)
	}
	for _, i := range []int{0, 2} {
		if out.Items[i].Status != BatchStatusOK {
			t.Errorf("item %d: status %q (%s), want ok", i, out.Items[i].Status, out.Items[i].Error)
		}
	}
	if out.Items[1].Status != BatchStatusError {
		t.Fatalf("item 1: status %q, want error", out.Items[1].Status)
	}
	if !strings.Contains(out.Items[1].Error, "internal panic") {
		t.Errorf("item 1: error %q, want sanitized panic diagnostic", out.Items[1].Error)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panics_total = %d, want 1", got)
	}
}

func TestBatchShedBeforeSingles(t *testing.T) {
	// Queue of 2 with 1 slot reserved: once one task is queued, batch
	// items are shed while single solves still get the last slot.
	s := New(Options{Workers: 1, QueueSize: 2, BatchQueueReserve: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	release := make(chan struct{})
	var started atomic.Int64
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		started.Add(1)
		<-release
		return []BatchPoint{{T: item.Times[0], Moments: []float64{1}}}, nil
	}
	defer close(release)
	prewarm(t, s, testSpec(9))

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	single := func(k int, wantStatus int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(k), T: 1, Order: 2}))
			if resp.StatusCode != wantStatus {
				t.Errorf("single solve %d: status %d, want %d: %s", k, resp.StatusCode, wantStatus, raw)
			}
		}()
	}

	// Occupy the only worker, then queue one more single solve: the queue
	// now holds 1 of 2 slots, leaving exactly the reserved headroom.
	single(0, http.StatusOK)
	waitFor("worker to pick up the first solve", func() bool { return started.Load() == 1 })
	single(1, http.StatusOK)
	waitFor("second solve to queue", func() bool { return s.pool.Depth() == 1 })

	// A batch item must now be shed...
	resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(9), Items: []BatchItem{
		{Times: []float64{1}, Order: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	if out.Items[0].Status != BatchStatusError || !strings.Contains(out.Items[0].Error, "shed") {
		t.Fatalf("batch item = %+v, want shed error", out.Items[0])
	}
	if got := s.metrics.BatchShed.Load(); got != 1 {
		t.Errorf("batch_shed_total = %d, want 1", got)
	}

	// ...while a single solve still claims the reserved slot.
	single(2, http.StatusOK)
	waitFor("third solve to queue", func() bool { return s.pool.Depth() == 2 })

	release <- struct{}{}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
}

// TestHostileStateCountRejected: a ~100-byte spec declaring trillions of
// states with one-element lists must answer 400 without allocating
// States-sized arrays, and the server keeps serving.
func TestHostileStateCountRejected(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	body := `{"model":{"states":2036854757808,"transitions":[],"rates":[1],"variances":[0],"initial":[1]},"t":1,"order":2}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "1 rates for 2036854757808 states") {
		t.Errorf("error should name the length mismatch: %s", raw)
	}
	resp2, out, raw2 := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(1), T: 1, Order: 2}))
	if resp2.StatusCode != http.StatusOK || len(out.Moments) == 0 {
		t.Fatalf("solve after the hostile spec: status %d: %s", resp2.StatusCode, raw2)
	}
}
