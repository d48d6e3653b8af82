package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// birthDeathSpec returns an n-state birth-death spec with level-indexed
// rewards, for matrix-free composition tests.
func birthDeathSpec(n int) *spec.Model {
	sp := &spec.Model{
		States:    n,
		Rates:     make([]float64, n),
		Variances: make([]float64, n),
		Initial:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sp.Rates[i] = 0.01 * float64(i%5)
		sp.Variances[i] = 0.004 * float64(i%3)
		if i < n-1 {
			sp.Transitions = append(sp.Transitions,
				spec.Transition{From: i, To: i + 1, Rate: 1},
				spec.Transition{From: i + 1, To: i, Rate: 1.5})
		}
	}
	sp.Initial[0] = 1
	return sp
}

// TestComposeSolveEndToEnd drives a composed solve through the HTTP API
// and checks the response against the locally composed model bit for bit,
// plus the result-cache behaviour of the composed cache key.
func TestComposeSolveEndToEnd(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	compA, compB := testSpec(0), testSpec(3)
	ma, err := compA.Build()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := compB.Build()
	if err != nil {
		t.Fatal(err)
	}
	joint, err := core.Compose(ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := joint.AccumulatedReward(1.2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	body := solveBody(t, &SolveRequest{Compose: []*spec.Model{compA, compB}, T: 1.2, Order: 3})
	resp, out, raw := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compose solve: %d %s", resp.StatusCode, raw)
	}
	if len(out.Moments) != 4 {
		t.Fatalf("moments = %v", out.Moments)
	}
	for j, m := range out.Moments {
		if math.Float64bits(m) != math.Float64bits(want.Moments[j]) {
			t.Errorf("moment %d = %x, local composition %x", j, math.Float64bits(m), math.Float64bits(want.Moments[j]))
		}
	}
	if out.Stats == nil || out.Stats.MatrixFormat == "" {
		t.Fatalf("missing solver stats: %+v", out.Stats)
	}

	// The composed request is cacheable under its component-hash key.
	resp2, out2, raw2 := postSolve(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat: %d %s", resp2.StatusCode, raw2)
	}
	if !out2.Cached {
		t.Error("repeat composed request missed the result cache")
	}
}

// TestComposeCacheKeyVersion: composed model hashes carry the v3 tag
// (scalar fold, bound within epsilon), so the result cache, a restored
// journal or a peer never serves an entry keyed under the v2 tag (the
// per-state fold) for the same components.
func TestComposeCacheKeyVersion(t *testing.T) {
	req := &SolveRequest{Compose: []*spec.Model{testSpec(0), testSpec(3)}, T: 1.2, Order: 3}
	got, err := req.modelHash()
	if err != nil {
		t.Fatal(err)
	}
	tagged := func(tag string) [32]byte {
		h := sha256.New()
		h.Write([]byte(tag))
		for _, c := range req.Compose {
			ch, err := c.Hash()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(ch[:])
		}
		var out [32]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	if want := tagged("somrm/compose/v3\n"); got != want {
		t.Errorf("composed model hash %x, want the v3-tagged %x", got, want)
	}
	if old := tagged("somrm/compose/v2\n"); got == old {
		t.Error("composed model hash still equals the v2-tagged hash")
	}
}

// TestComposeImpulseRejected is the 400 regression test for the typed
// impulse sentinel: a composition with an impulse-reward component must
// come back as a client error naming the problem, not a 500.
func TestComposeImpulseRejected(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	withImpulse := testSpec(1)
	withImpulse.Impulses = []spec.Impulse{{From: 0, To: 1, Reward: 0.5}}
	body := solveBody(t, &SolveRequest{Compose: []*spec.Model{testSpec(0), withImpulse}, T: 1, Order: 2})
	resp, _, raw := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("impulse composition: status %d (want 400): %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "impulse") {
		t.Errorf("error body should name the impulse rejection: %s", raw)
	}
}

func TestComposeRequestValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	cases := []struct {
		name string
		req  *SolveRequest
		want string
	}{
		{"single component", &SolveRequest{Compose: []*spec.Model{testSpec(0)}, T: 1, Order: 1}, "at least 2"},
		{"model and compose", &SolveRequest{Model: testSpec(0), Compose: []*spec.Model{testSpec(0), testSpec(1)}, T: 1, Order: 1}, "mutually exclusive"},
		{"wrong method", &SolveRequest{Compose: []*spec.Model{testSpec(0), testSpec(1)}, T: 1, Order: 1, Method: MethodODE}, "randomization"},
		{"state blowup", &SolveRequest{Compose: []*spec.Model{{States: 3000}, {States: 3000}}, T: 1, Order: 1}, "state space exceeds"},
		{"nil component", &SolveRequest{Compose: []*spec.Model{testSpec(0), nil}, T: 1, Order: 1}, "component 1 missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, raw := postSolve(t, ts.URL, solveBody(t, tc.req))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (want 400): %s", resp.StatusCode, raw)
			}
			if !strings.Contains(raw, tc.want) {
				t.Errorf("error %q does not mention %q", raw, tc.want)
			}
		})
	}
}

// TestComposeMatrixFreeEndToEnd solves a composition too large to
// materialize through the API: the response must report its components'
// sweep format and the sweep_formats metric must count the solve once.
func TestComposeMatrixFreeEndToEnd(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	body := solveBody(t, &SolveRequest{
		Compose: []*spec.Model{birthDeathSpec(257), birthDeathSpec(257)},
		T:       0.3, Order: 2,
	})
	resp, out, raw := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix-free compose: %d %s", resp.StatusCode, raw)
	}
	if out.Stats == nil || out.Stats.MatrixFormat != "band" {
		t.Fatalf("stats = %+v, want the birth-death components' matrix_format band", out.Stats)
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
	if snap.SweepFormats["band"] != 1 {
		t.Errorf("sweep_formats = %v, want one band sweep", snap.SweepFormats)
	}
	for _, gone := range []string{"kron", "qbd"} {
		if _, ok := snap.SweepFormats[gone]; ok {
			t.Errorf("sweep_formats = %v still carries a %s label", snap.SweepFormats, gone)
		}
	}
}

// TestComposeTimeoutHoldsNoCheckpoint: a composed solve that runs out of
// time answers 504 even on a server that checkpoints, and holds no
// checkpoint, because composed solves run one sweep per component and
// never capture one.
func TestComposeTimeoutHoldsNoCheckpoint(t *testing.T) {
	s := New(Options{Workers: 1, Checkpoints: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	var noCapture atomic.Bool
	done := make(chan struct{})
	real := s.solveItem
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		defer close(done)
		noCapture.Store(!item.checkpoint)
		return real(ctx, prep, item)
	}
	heavy := &spec.Model{States: 2, Transitions: []spec.Transition{
		{From: 0, To: 1, Rate: 4000},
		{From: 1, To: 0, Rate: 5000},
	}, Rates: []float64{1, 0}, Variances: []float64{0.3, 0.3}, Initial: []float64{1, 0}}
	// qt = 5000·40 = 2e5 randomization steps per component.
	body := solveBody(t, &SolveRequest{Compose: []*spec.Model{heavy, heavy}, T: 40, Order: 6, TimeoutMS: 5})
	resp, _, raw := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the composed solve never reached the solver")
	}
	if !noCapture.Load() {
		t.Error("the composed solve reached the solver with checkpoint capture on")
	}
	if n := s.checkpoints.Len(); n != 0 {
		t.Errorf("%d checkpoints held after a composed timeout, want 0", n)
	}
	if got := s.metrics.Partials.Load(); got != 0 {
		t.Errorf("partials_total = %d, want 0", got)
	}
}
