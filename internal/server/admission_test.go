package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"somrm/internal/spec"
)

func TestMemGateReserve(t *testing.T) {
	g := newMemGate(1000)
	rel1, ok := g.Reserve(600)
	if !ok || g.InFlight() != 600 {
		t.Fatalf("first reserve: ok=%v inflight=%d", ok, g.InFlight())
	}
	if _, ok := g.Reserve(600); ok {
		t.Fatal("over-budget reserve admitted")
	}
	rel2, ok := g.Reserve(400)
	if !ok {
		t.Fatal("exact-fit reserve refused")
	}
	rel1()
	rel1() // release is idempotent
	if g.InFlight() != 400 {
		t.Fatalf("inflight after release = %d, want 400", g.InFlight())
	}
	rel2()
	if g.InFlight() != 0 {
		t.Fatalf("inflight after all releases = %d, want 0", g.InFlight())
	}
	// A single request larger than the whole budget is always shed.
	if _, ok := g.Reserve(1001); ok {
		t.Fatal("larger-than-budget reserve admitted")
	}
}

func TestEstimateWorkingSetShape(t *testing.T) {
	small := &SolveRequest{Model: testSpec(0), T: 1, Order: 2, Method: MethodRandomization}
	big := &SolveRequest{Model: largeBandSpec(5000, 2), T: 1, Order: 2, Method: MethodRandomization}
	es, eb := estimateWorkingSet(small, 0, ""), estimateWorkingSet(big, 0, "")
	if es <= 0 || eb <= 0 {
		t.Fatalf("estimates must be positive: %d, %d", es, eb)
	}
	if eb < 100*es {
		t.Fatalf("2500x states should dominate the estimate: small=%d big=%d", es, eb)
	}
	// Band storage is charged only inside the tridiagonal window: a forced
	// band on the pentadiagonal model streams compact CSR and is charged
	// as such, while a tridiagonal model's band costs less than its CSR.
	if eb, ec := estimateWorkingSet(big, 0, "band"), estimateWorkingSet(big, 0, "csr"); eb != ec {
		t.Fatalf("forced band on a pentadiagonal model charged %d, want the csr estimate %d", eb, ec)
	}
	// At order 3 both storages run a packed state layout, so the band's
	// cheaper window shows in the total; at order 2 only the band sweep
	// packs its state, and is charged the row-lane planes on top.
	tri := &SolveRequest{Model: largeBandSpec(5000, 1), T: 1, Order: 3, Method: MethodRandomization}
	if eb, ec := estimateWorkingSet(tri, 0, ""), estimateWorkingSet(tri, 0, "csr"); eb >= ec {
		t.Fatalf("tridiagonal band estimate %d should undercut csr %d", eb, ec)
	}
	diff3 := estimateWorkingSet(tri, 0, "") - estimateWorkingSet(tri, 0, "csr")
	tri.Order = 2
	diff2 := estimateWorkingSet(tri, 0, "") - estimateWorkingSet(tri, 0, "csr")
	if block := int64(5000 * 8 * 3); diff2-diff3 != block {
		t.Fatalf("order-2 band-over-csr charge %d, order-3 %d: want one state block (%d) more at order 2", diff2, diff3, block)
	}
	// A composed request is charged its components plus product-sized
	// moment blocks, never a materialized product matrix.
	wide := []*spec.Model{largeBandSpec(100, 3), largeBandSpec(100, 3), largeBandSpec(100, 3)}
	free := &SolveRequest{Compose: wide, T: 1, Order: 1, Method: MethodRandomization}
	matFree := estimateWorkingSet(free, 0, "")
	var want int64
	for _, c := range wide {
		want += estimateWorkingSet(&SolveRequest{Model: c, T: 1, Order: 1, Method: MethodRandomization}, 0, "")
	}
	// One result block for the single time point plus the fold's
	// intermediate, (order+1) product vectors each.
	n := int64(100 * 100 * 100)
	want += 2 * n * 8 * 2
	if matFree != want {
		t.Fatalf("composed estimate %d, want components plus two product moment blocks = %d", matFree, want)
	}
}

// largeBandSpec builds a birth-death-style chain of n states with the
// given half-bandwidth.
func largeBandSpec(n, band int) *spec.Model {
	m := &spec.Model{States: n}
	m.Rates = make([]float64, n)
	m.Variances = make([]float64, n)
	m.Initial = make([]float64, n)
	m.Initial[0] = 1
	for i := 0; i < n; i++ {
		m.Rates[i] = float64(i%3) - 0.5
		m.Variances[i] = 0.1
		for b := 1; b <= band; b++ {
			if i+b < n {
				m.Transitions = append(m.Transitions, spec.Transition{From: i, To: i + b, Rate: 1})
			}
			if i-b >= 0 {
				m.Transitions = append(m.Transitions, spec.Transition{From: i, To: i - b, Rate: 0.5})
			}
		}
	}
	return m
}

// TestMemBudgetShedsSolve: a budget below the request's estimated working
// set sheds the solve with a typed 503 and mem_shed_total, and a budget
// above it admits the same request.
func TestMemBudgetShedsSolve(t *testing.T) {
	tiny := New(Options{Workers: 1, MemBudget: 64})
	defer tiny.Shutdown(context.Background())
	ts := httptest.NewServer(tiny.Handler())
	defer ts.Close()

	body := solveBody(t, &SolveRequest{Model: testSpec(0), T: 1.5, Order: 3})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "memory budget") {
		t.Fatalf("shed body not typed: %s", raw)
	}
	if got := tiny.metrics.MemShed.Load(); got != 1 {
		t.Fatalf("mem_shed_total = %d, want 1", got)
	}
	if got := tiny.metrics.Solves.Load(); got != 0 {
		t.Fatalf("shed request reached the solver: %d solves", got)
	}
	if got := tiny.memGate.InFlight(); got != 0 {
		t.Fatalf("shed request left %d bytes reserved", got)
	}

	roomy := New(Options{Workers: 1, MemBudget: 1 << 20})
	defer roomy.Shutdown(context.Background())
	ts2 := httptest.NewServer(roomy.Handler())
	defer ts2.Close()
	resp2, out, raw2 := postSolve(t, ts2.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("admitted solve failed: %d: %s", resp2.StatusCode, raw2)
	}
	if len(out.Moments) != 4 {
		t.Fatalf("bad moments: %v", out.Moments)
	}
	if got := roomy.memGate.InFlight(); got != 0 {
		t.Fatalf("release leaked %d bytes in flight", got)
	}

	// The /metrics gauges expose the gate.
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := readAll(mresp)
	var snap MetricsSnapshot
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.MemBudgetBytes != 1<<20 {
		t.Fatalf("mem_budget_bytes = %d, want %d", snap.MemBudgetBytes, 1<<20)
	}
}

// TestBatchMemShedPerItem is the batch-admission gate: a budget that fits
// small items but not a huge one sheds exactly the huge item with the
// typed shed_memory status while the rest of the batch succeeds — never a
// whole-batch failure — and the counters stay consistent.
func TestBatchMemShedPerItem(t *testing.T) {
	small := &BatchItem{Times: []float64{0.5, 1.0}, Order: 2}
	huge := &BatchItem{Times: make([]float64, 4096), Order: 2}
	for i := range huge.Times {
		huge.Times[i] = float64(i) / 100
	}
	// Pick a budget between the two items' estimates so admission is
	// deterministic whatever order the items land in.
	sp := testSpec(0)
	smallNeed := estimateItemWorkingSet(sp, small, 0, "")
	hugeNeed := estimateItemWorkingSet(sp, huge, 0, "")
	if smallNeed*2 >= hugeNeed {
		t.Fatalf("fixture broken: small=%d huge=%d", smallNeed, hugeNeed)
	}
	s := New(Options{Workers: 2, QueueSize: 16, MemBudget: smallNeed*2 + 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &BatchRequest{Model: sp, Items: []BatchItem{*small, *huge, *small}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (mem shed must never fail the batch): %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("want 3 item results, got %d", len(out.Items))
	}
	for _, i := range []int{0, 2} {
		if out.Items[i].Status != BatchStatusOK {
			t.Errorf("small item %d: status %q (%s)", i, out.Items[i].Status, out.Items[i].Error)
		}
	}
	if out.Items[1].Status != BatchStatusShedMemory {
		t.Fatalf("huge item: status %q, want %q (%s)", out.Items[1].Status, BatchStatusShedMemory, out.Items[1].Error)
	}
	if !strings.Contains(out.Items[1].Error, "memory budget") {
		t.Fatalf("shed item error not typed: %q", out.Items[1].Error)
	}
	if got := s.metrics.MemShed.Load(); got != 1 {
		t.Fatalf("mem_shed_total = %d, want 1", got)
	}
	if got := s.memGate.InFlight(); got != 0 {
		t.Fatalf("batch left %d bytes reserved", got)
	}
}
