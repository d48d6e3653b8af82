package server

import (
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/core"
	"somrm/internal/resilience"
	"somrm/internal/testutil"
)

// typedChaosError reports whether err is one of the outcomes the client
// is allowed to surface under faults: a typed API error, a breaker
// fail-fast, an exhausted retry budget, or a transient transport-level
// failure that outlived its retries. Anything else (a decoded-garbage
// success, an untyped error) fails the chaos invariant.
func typedChaosError(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) ||
		errors.Is(err, resilience.ErrBreakerOpen) ||
		errors.Is(err, resilience.ErrBudgetExhausted) ||
		resilience.IsTransient(err)
}

// TestChaosStormAndRecovery drives the real server through the fault
// injector in three phases — a mixed-fault storm, a full outage, a
// heal — and asserts the resilience invariants: every request
// terminates with a correct result or a typed error, the process
// survives every injected panic, the breaker walks a full
// open -> half-open -> close cycle, and no module goroutines leak.
func TestChaosStormAndRecovery(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)

	s := New(Options{Workers: 2, QueueSize: 64})
	inj := NewFaultInjector(FaultConfig{
		FailureRate:  0.20,
		TruncateRate: 0.10,
		PanicRate:    0.05,
		Latency:      200 * time.Microsecond,
		Seed:         42,
	})
	ts := httptest.NewServer(inj.Middleware(s.Handler()))
	// Injected handler panics are recovered by net/http; silence its
	// stack-trace logging so the test output stays readable.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	defer ts.Close()
	defer s.Shutdown(context.Background())

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := NewClient(ts.URL,
		WithHTTPClient(&http.Client{Transport: transport, Timeout: 10 * time.Second}),
		fastRetry(4),
		WithRetryBudget(100000, 1), // the budget must not mask the storm
		WithBreaker(resilience.BreakerConfig{
			// High trip threshold: the 20% storm must ride through
			// closed; only the full outage below is allowed to open it.
			Window: 32, FailureRatio: 0.9, MinSamples: 16,
			Cooldown: 20 * time.Millisecond, HalfOpenProbes: 2,
		}))

	// Reference results straight from the core solver, one per model.
	const distinct = 6
	const order = 2
	refs := make([][]float64, distinct)
	for k := 0; k < distinct; k++ {
		model, err := testSpec(k).Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.AccumulatedRewardAt([]float64{1}, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = res[0].Moments
	}

	// Phase 1: storm. Concurrent singles and batches against the faulty
	// server; count outcomes, never tolerate an untyped one.
	const goroutines = 12
	const repsEach = 8
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repsEach; r++ {
				k := (g + r) % distinct
				if g%2 == 0 {
					resp, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(k), T: 1, Order: order})
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("untyped solve error: %v", err)
						}
						failed.Add(1)
						continue
					}
					ok.Add(1)
					if len(resp.Moments) != order+1 {
						t.Errorf("model %d: got %d moments, want %d", k, len(resp.Moments), order+1)
						continue
					}
					for j, m := range resp.Moments {
						if math.IsNaN(m) || math.IsInf(m, 0) {
							t.Errorf("model %d: moment %d is %g", k, j, m)
						}
						if m != refs[k][j] {
							t.Errorf("model %d moment %d: got %g, want %g (corrupted result slipped through)", k, j, m, refs[k][j])
						}
					}
				} else {
					grid := []float64{0.5, 1}
					resp, err := c.SolveBatch(context.Background(), &BatchRequest{
						Model: testSpec(k),
						Items: []BatchItem{{Times: grid, Order: order}},
					})
					if err != nil {
						if !typedChaosError(err) {
							t.Errorf("untyped batch error: %v", err)
						}
						failed.Add(1)
						continue
					}
					ok.Add(1)
					if len(resp.Items) != 1 {
						t.Errorf("batch for model %d: %d item results, want 1", k, len(resp.Items))
						continue
					}
					item := resp.Items[0]
					if item.Status == BatchStatusOK && len(item.Points) != len(grid) {
						t.Errorf("batch for model %d: %d points, want %d", k, len(item.Points), len(grid))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no request succeeded during the storm; retries are not recovering faults")
	}
	counts := inj.Counts()
	if counts.Failures == 0 || counts.Truncates == 0 || counts.Panics == 0 {
		t.Fatalf("storm fired too few faults to mean anything: %+v", counts)
	}
	t.Logf("storm: %d ok, %d failed after retries; faults %+v", ok.Load(), failed.Load(), counts)

	// The server must have sailed through: no solver panics (injected
	// panics fire in the middleware, before the solver), still healthy.
	if got := s.metrics.Panics.Load(); got != 0 {
		t.Errorf("solver panics_total = %d during a middleware-only storm", got)
	}

	// Phase 2: full outage until the breaker opens and fails fast.
	inj.SetConfig(FaultConfig{FailureRate: 1, Seed: 42})
	sawOpen := false
	for i := 0; i < 50 && !sawOpen; i++ {
		_, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(i % distinct), T: 2, Order: order})
		if err == nil {
			t.Fatal("solve succeeded during a 100% outage")
		}
		sawOpen = errors.Is(err, resilience.ErrBreakerOpen)
	}
	if !sawOpen {
		t.Fatalf("breaker never opened under 100%% failures; stats %+v", c.BreakerStats())
	}
	atServer := inj.Counts()
	if _, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(0), T: 2, Order: order}); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("expected breaker fail-fast, got %v", err)
	}
	if inj.Counts() != atServer {
		t.Error("open breaker still let a request through to the server")
	}

	// Phase 3: heal. Faults off, cooldown elapses, probes close the circuit.
	inj.SetConfig(FaultConfig{Seed: 42})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(1), T: 2, Order: order}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after the outage; breaker %s stats %+v", c.BreakerState(), c.BreakerStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The breaker needs HalfOpenProbes successes to close; feed it a
	// couple more wins past the first.
	for i := 0; i < 3; i++ {
		if _, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(1), T: 2, Order: order}); err != nil {
			t.Fatalf("healed service failed again: %v", err)
		}
	}
	st := c.BreakerStats()
	if st.Opens < 1 || st.HalfOpens < 1 || st.Closes < 1 {
		t.Errorf("breaker stats = %+v, want at least one full open -> half-open -> close cycle", st)
	}

	// The service itself never degraded: a clean path (no middleware)
	// still solves and reports healthy.
	clean := httptest.NewServer(s.Handler())
	defer clean.Close()
	resp, _, raw := postSolve(t, clean.URL, solveBody(t, &SolveRequest{Model: testSpec(2), T: 1, Order: order}))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-chaos clean solve: status %d: %s", resp.StatusCode, raw)
	}
}

// TestChaosServerSideSolverPanics injects panics into the solver itself
// (not the middleware) under concurrent fire and asserts the pool
// recovery holds up: every panic becomes a sanitized 500, the workers
// survive, and the client's retry layer treats them as permanent
// (500 is not retried).
func TestChaosServerSideSolverPanics(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)

	s := New(Options{Workers: 2, QueueSize: 64})
	var panics atomic.Int64
	real := s.solveItem
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		// Panic on every third request, spread across workers.
		if panics.Add(1)%3 == 0 {
			panic("chaos: solver blew up")
		}
		return real(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := NewClient(ts.URL,
		WithHTTPClient(&http.Client{Transport: transport, Timeout: 10 * time.Second}),
		fastRetry(3), WithoutBreaker())

	var ok, internal atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				// Distinct (model, t) pairs defeat the result cache so
				// every request exercises the solve path.
				_, err := c.Solve(context.Background(), &SolveRequest{
					Model: testSpec(g), T: 1 + float64(r)/13, Order: 2,
				})
				if err == nil {
					ok.Add(1)
					continue
				}
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusInternalServerError {
					internal.Add(1)
					continue
				}
				t.Errorf("unexpected error under solver panics: %v", err)
			}
		}(g)
	}
	wg.Wait()

	if ok.Load() == 0 || internal.Load() == 0 {
		t.Fatalf("want a mix of successes and sanitized 500s, got ok=%d internal=%d", ok.Load(), internal.Load())
	}
	if got := s.metrics.Panics.Load(); got == 0 {
		t.Error("panics_total stayed 0 though the solver panicked")
	}
	// The pool survived: a final clean request succeeds (the stub panics
	// on multiples of three; retry the handful needed to land off-cycle).
	okAfter := false
	for i := 0; i < 4 && !okAfter; i++ {
		_, err := c.Solve(context.Background(), &SolveRequest{Model: testSpec(9), T: 3 + float64(i), Order: 2})
		okAfter = err == nil
	}
	if !okAfter {
		t.Error("server stopped serving after repeated solver panics")
	}
}
