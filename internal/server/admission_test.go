package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"somrm/internal/sparse"
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
	// est charges a randomization item of nTimes points.
	est := func(sp *spec.Model, order, nTimes int) int64 {
		return estimateFootprint(sp, nil, &BatchItem{Times: make([]float64, nTimes), Order: order, Method: MethodRandomization})
	}
	// block is one packed buffer of the sweep's own layout, in bytes.
	block := func(sp *spec.Model, bandwidth, order int) int64 {
		_, words, err := sparse.PackedLayout(sparse.FormatAuto, sp.States, bandwidth, order, len(sp.Impulses) > 0)
		if err != nil {
			t.Fatal(err)
		}
		return int64(words) * 8
	}
	small, big := testSpec(0), largeBandSpec(5000, 2)
	es, eb := est(small, 2, 1), est(big, 2, 1)
	if es <= 0 || eb <= 0 {
		t.Fatalf("estimates must be positive: %d, %d", es, eb)
	}
	if eb < 100*es {
		t.Fatalf("2500x states should dominate the estimate: small=%d big=%d", es, eb)
	}
	// Randomization: two packed state buffers plus one accumulator block
	// per time point, each the size sparse.PackedLayout gives the sweep,
	// on top of the matrix. The band window (an impulse-free tridiagonal
	// model) packs order+1 row-lane planes of at least n+2 words and is
	// itself three such planes; compact CSR (a wider model, or any impulse
	// model) packs P, order+1 rounded up to a multiple of 4, words per
	// state, and stores int row offsets, uint32 columns and float64
	// values, as do an impulse model's order impulse matrices.
	vec := int64(5000 * 8)
	tri := largeBandSpec(5000, 1)
	if b := block(tri, 1, 2); b < 3*(vec+2*8) {
		t.Fatalf("order-2 band block %d B, want at least three planes of n+2 words", b)
	}
	band := 3 * block(tri, 1, 0)
	if got, want := est(tri, 2, 1)-band, 3*block(tri, 1, 2); got != want {
		t.Fatalf("order-2 band sweep charged %d B beyond its band, want %d (three blocks)", got, want)
	}
	csr := int64(len(big.Transitions)+5000)*(8+4) + int64(5000+1)*8
	if got, want := eb-csr, 3*block(big, 2, 2); got != want || want != 3*4*vec {
		t.Fatalf("order-2 pentadiagonal sweep charged %d B beyond its CSR, want %d (P = 4)", got, want)
	}
	if got, want := est(big, 12, 1)-csr, 3*block(big, 2, 12); got != want || want != 3*16*vec {
		t.Fatalf("order-12 pentadiagonal sweep charged %d B beyond its CSR, want %d (P = 16)", got, want)
	}
	// An order-12 CSR batch item of three time points: three accumulator
	// blocks of P = 16 words per state.
	if got, want := est(big, 12, 3)-csr, (2+3)*block(big, 2, 12); got != want {
		t.Fatalf("order-12 pentadiagonal 3-point item charged %d B beyond its CSR, want %d (P = 16)", got, want)
	}
	if got, want := est(tri, 12, 3)-band, (2+3)*block(tri, 1, 12); got != want {
		t.Fatalf("order-12 band 3-point item charged %d B beyond its band, want %d (13 planes)", got, want)
	}
	imp := largeBandSpec(5000, 1)
	for i := 0; i+1 < 5000; i++ {
		imp.Impulses = append(imp.Impulses, spec.Impulse{From: i, To: i + 1, Reward: 0.5})
	}
	nnz := int64(len(imp.Transitions) + 5000)
	impCSR := nnz*(8+4) + int64(5000+1)*8 + 2*(int64(len(imp.Impulses))*(8+4)+int64(5000+1)*8)
	if got, want := est(imp, 2, 1)-impCSR, 3*block(imp, 1, 2); got != want || want != 3*4*vec {
		t.Fatalf("order-2 tridiagonal impulse sweep charged %d B beyond its CSR and impulse matrices, want %d (P = 4)", got, want)
	}
	// A composed item is charged its components only: it folds scalar
	// moments, never product-sized vectors or a product matrix.
	wide := []*spec.Model{largeBandSpec(100, 3), largeBandSpec(100, 3), largeBandSpec(100, 3)}
	item := &BatchItem{Times: []float64{1}, Order: 1, Method: MethodRandomization}
	var want int64
	for _, c := range wide {
		want += estimateFootprint(c, nil, item)
	}
	if got := estimateFootprint(nil, wide, item); got != want {
		t.Fatalf("composed estimate %d, want the components' %d", got, want)
	}
}

// TestEstimateMatrixTermMatchesStorage: the estimate's matrix term is the
// bytes the solver builds — Q' in the storage its sweep streams, and an
// impulse model's order impulse matrices — for a band, a compact CSR and
// an impulse model. Above the maximum exit rate every diagonal of Q' is
// stored and the two agree to the byte; at it (the prepared rate), the
// rows attaining it may cancel their diagonal, which the estimate still
// charges.
func TestEstimateMatrixTermMatchesStorage(t *testing.T) {
	const n, order = 300, 3
	imp := largeBandSpec(n, 1)
	for i := 0; i+1 < n; i++ {
		imp.Impulses = append(imp.Impulses, spec.Impulse{From: i, To: i + 1, Reward: 0.5})
	}
	for _, c := range []struct {
		name   string
		sp     *spec.Model
		format sparse.MatrixFormat
	}{
		{"band", largeBandSpec(n, 1), sparse.FormatBand},
		{"csr", largeBandSpec(n, 2), sparse.FormatCSR32},
		{"impulse", imp, sparse.FormatCSR32},
	} {
		m, err := c.sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := sweepShape(c.sp, order)
		gen := m.Generator()
		for _, q := range []float64{2 * gen.MaxExitRate(), gen.MaxExitRate()} {
			st, err := sparse.Uniformize(gen.Matrix(), 1/q, sparse.FormatAuto, m.HasImpulses())
			if err != nil {
				t.Fatal(err)
			}
			if st.Format() != c.format {
				t.Fatalf("%s: storage %q, want %q", c.name, st.Format(), c.format)
			}
			built := st.Bytes()
			if m.HasImpulses() {
				built += order * m.Impulses().Bytes()
			}
			if q > gen.MaxExitRate() && got != built || got < built {
				t.Errorf("%s at q=%g: matrix term %d B, built storage %d B", c.name, q, got, built)
			}
		}
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
	smallNeed := estimateFootprint(sp, nil, small)
	hugeNeed := estimateFootprint(sp, nil, huge)
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
