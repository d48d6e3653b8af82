package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// failureAccounting is the part of /metrics a failed solve moves: the
// rejection and failure counters, and the sweep counters of a sweep that
// ran before the failure.
type failureAccounting struct {
	Rejected, Failures, Panics, BatchShed  int64
	ShedQueueFull, ShedDeadline, MemShed   int64
	SweepFormats, SweepKernels             map[string]int64
	SweepBlocked, SweepCount, LatencyCount int64
}

func accountingOf(s *Server) failureAccounting {
	snap := s.metrics.Snapshot()
	return failureAccounting{
		Rejected: snap.Rejected, Failures: snap.Failures, Panics: snap.Panics, BatchShed: snap.BatchShed,
		ShedQueueFull: snap.ShedQueueFull, ShedDeadline: snap.ShedDeadline, MemShed: snap.MemShed,
		SweepFormats: snap.SweepFormats, SweepKernels: snap.SweepKernels,
		SweepBlocked: snap.SweepBlocked, SweepCount: snap.SweepLatency.Count,
		LatencyCount: snap.SolveLatency.Count,
	}
}

// failRequest sends one solve of sp at t as a single solve or as a
// one-item batch and requires it to fail.
func failRequest(t *testing.T, url string, batch bool, sp *spec.Model, tt float64, order int, boundsAt []float64, timeoutMS int64) {
	t.Helper()
	if batch {
		resp, out, raw := postBatch(t, url, &BatchRequest{Model: sp, Items: []BatchItem{
			{Times: []float64{tt}, Order: order, BoundsAt: boundsAt, TimeoutMS: timeoutMS},
		}})
		if resp.StatusCode != http.StatusOK || out.Items[0].Status == BatchStatusOK {
			t.Errorf("batch: status %d, want 200 with a failed item: %s", resp.StatusCode, raw)
		}
		return
	}
	resp, _, raw := postSolve(t, url, solveBody(t, &SolveRequest{Model: sp, T: tt, Order: order, BoundsAt: boundsAt, TimeoutMS: timeoutMS}))
	if resp.StatusCode == http.StatusOK {
		t.Errorf("single solve succeeded, want a failure: %s", raw)
	}
}

// TestFailureAccountingParity: each failure kind moves the same /metrics
// counters whether it arrives as a single solve or as a batch item, since
// both run the same pipeline and the same failure accounting.
func TestFailureAccountingParity(t *testing.T) {
	sp := testSpec(4)
	kinds := []struct {
		name string
		opts Options
		// run makes one request of the kind fail on s.
		run func(t *testing.T, s *Server, url string, batch bool)
		// check names the counter the kind must move.
		check func(a failureAccounting) bool
	}{
		{
			name: "queue full",
			// No batch reserve, so a batch item meets the full queue itself.
			opts: Options{Workers: 1, QueueSize: 1, BatchQueueReserve: -1},
			run: func(t *testing.T, s *Server, url string, batch bool) {
				release := holdWorker(t, s, url, sp)
				defer release()
				// Fill the one queue slot with a second held solve.
				done := make(chan struct{})
				go func() {
					defer close(done)
					postSolve(t, url, solveBody(t, &SolveRequest{Model: sp, T: 2, Order: 2}))
				}()
				waitUntil(t, "the queue to fill", func() bool { return s.pool.Depth() == 1 })
				failRequest(t, url, batch, sp, 3, 2, nil, 0)
				release()
				<-done
			},
			check: func(a failureAccounting) bool { return a.ShedQueueFull == 1 && a.Rejected == 1 },
		},
		{
			name: "queue deadline",
			opts: Options{Workers: 1},
			run: func(t *testing.T, s *Server, url string, batch bool) {
				release := holdWorker(t, s, url, sp)
				defer release()
				done := make(chan struct{})
				go func() {
					defer close(done)
					failRequest(t, url, batch, sp, 3, 2, nil, 20)
				}()
				waitUntil(t, "the request to queue", func() bool { return s.pool.Depth() == 1 })
				time.Sleep(40 * time.Millisecond) // its deadline passes while queued
				release()
				<-done
			},
			check: func(a failureAccounting) bool { return a.ShedDeadline == 1 && a.Failures == 1 },
		},
		{
			name: "memory shed",
			opts: Options{Workers: 1, MemBudget: 64},
			run: func(t *testing.T, s *Server, url string, batch bool) {
				failRequest(t, url, batch, sp, 3, 2, nil, 0)
			},
			check: func(a failureAccounting) bool { return a.MemShed == 1 && a.Rejected == 1 },
		},
		{
			name: "solver panic",
			opts: Options{Workers: 1},
			run: func(t *testing.T, s *Server, url string, batch bool) {
				s.solveItem = func(context.Context, *core.Prepared, *BatchItem) ([]BatchPoint, error) {
					panic(secretPanicValue)
				}
				failRequest(t, url, batch, sp, 3, 2, nil, 0)
			},
			check: func(a failureAccounting) bool { return a.Panics == 1 && a.Failures == 1 },
		},
		{
			name: "failing bounds",
			opts: Options{Workers: 1},
			run: func(t *testing.T, s *Server, url string, batch bool) {
				// Two moments are too few for the Chebyshev–Markov bounds.
				failRequest(t, url, batch, sp, 3, 1, []float64{1}, 0)
			},
			// The sweep ran before the bounds failed, and counts.
			check: func(a failureAccounting) bool { return a.Failures == 1 && a.SweepCount == 1 },
		},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var got [2]failureAccounting
			for i, batch := range []bool{false, true} {
				s := New(k.opts)
				ts := httptest.NewServer(s.Handler())
				prewarm(t, s, sp)
				k.run(t, s, ts.URL, batch)
				got[i] = accountingOf(s)
				ts.Close()
				s.Shutdown(context.Background())
			}
			if !k.check(got[0]) {
				t.Errorf("single solve did not move the kind's counters: %+v", got[0])
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("counters differ:\nsingle %+v\nbatch  %+v", got[0], got[1])
			}
		})
	}
}

// holdWorker occupies the server's only worker with a single solve of sp
// blocked in the executor until the returned release (idempotent) runs.
// Later solves run the real executor.
func holdWorker(t *testing.T, s *Server, url string, sp *spec.Model) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var held atomic.Bool
	real := s.solveItem
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		if held.CompareAndSwap(false, true) {
			<-gate
		}
		return real(ctx, prep, item)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolve(t, url, solveBody(t, &SolveRequest{Model: sp, T: 1, Order: 2}))
	}()
	waitUntil(t, "the worker to be held", held.Load)
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
			<-done
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdBatchBuildIsPoolTask: a batch on an uncached model builds it as
// a pool task, so with the only worker held the build queues instead of
// running on the handler goroutine, and the batch completes once the
// worker frees.
func TestColdBatchBuildIsPoolTask(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	held, cold := testSpec(5), testSpec(6)
	prewarm(t, s, held)
	release := holdWorker(t, s, ts.URL, held)
	defer release()

	type result struct {
		status int
		out    *BatchResponse
		raw    string
	}
	res := make(chan result, 1)
	go func() {
		resp, out, raw := postBatch(t, ts.URL, &BatchRequest{Model: cold, Items: []BatchItem{{Times: []float64{1}, Order: 2}}})
		res <- result{resp.StatusCode, out, raw}
	}()
	waitUntil(t, "the build to queue", func() bool { return s.pool.Depth() == 1 })
	time.Sleep(20 * time.Millisecond)
	if got := s.metrics.PreparedMisses.Load(); got != 1 {
		t.Fatalf("prepared_misses = %d while the worker is held, want 1 (the prewarm only)", got)
	}
	select {
	case r := <-res:
		t.Fatalf("batch finished while its build should be queued: %d %s", r.status, r.raw)
	default:
	}

	release()
	r := <-res
	if r.status != http.StatusOK || r.out.Items[0].Status != BatchStatusOK {
		t.Fatalf("batch after the worker freed: %d %s", r.status, r.raw)
	}
	if r.out.PreparedCached {
		t.Error("cold batch reported a prepared-cache hit")
	}
	if got := s.metrics.Solves.Load(); got != 2 {
		t.Errorf("solves = %d, want 2 (a build is not a solve)", got)
	}
}

// TestHugeTimeoutClampedToDefault: a timeout_ms too large to count in
// nanoseconds is clamped to the server default like any other long
// timeout, for a single solve and a batch item alike, instead of
// overflowing into an already-expired deadline.
func TestHugeTimeoutClampedToDefault(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const huge = 9_300_000_000_000 // ms: past math.MaxInt64 ns
	resp, _, raw := postSolve(t, ts.URL, solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, TimeoutMS: huge}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single solve: status %d: %s", resp.StatusCode, raw)
	}
	bresp, out, braw := postBatch(t, ts.URL, &BatchRequest{Model: testSpec(1), TimeoutMS: huge, Items: []BatchItem{
		{Times: []float64{1}, Order: 2},
		{Times: []float64{2}, Order: 2, TimeoutMS: huge},
	}})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", bresp.StatusCode, braw)
	}
	for i, item := range out.Items {
		if item.Status != BatchStatusOK {
			t.Errorf("item %d: %q (%s)", i, item.Status, item.Error)
		}
	}
}
