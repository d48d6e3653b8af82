package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"somrm/internal/core"
	"somrm/internal/server"
)

// firstBodies renders the first n request bodies of client 0's stream.
func firstBodies(t *testing.T, w *workload, seed int64, n int) [][]byte {
	t.Helper()
	st, err := w.newStream(newOracle(), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		r, err := st.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bytes.Clone(r.body)) // large-cold reuses its buffer
	}
	return out
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := 40
			if w == largeCold {
				n = 2
			}
			a, b := firstBodies(t, w, 7, n), firstBodies(t, w, 7, n)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("request %d differs between two streams of seed 7", i)
				}
			}
			c := firstBodies(t, w, 8, n)
			same := 0
			for i := range a {
				if bytes.Equal(a[i], c[i]) {
					same++
				}
			}
			if same == n {
				t.Fatalf("seeds 7 and 8 generated the same %d requests", n)
			}
		})
	}
}

func TestSmallMixShape(t *testing.T) {
	st, err := smallMix.newStream(newOracle(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := st.(*ringStream).reqs
	repeats, batches, bounded := 0, 0, 0
	seen := map[*request]bool{}
	for _, r := range reqs {
		if seen[r] {
			repeats++
		}
		seen[r] = true
		if r.path == batchPath {
			batches++
			if len(r.times) != 20 {
				t.Fatalf("batch over %d points, want the 20-point grid", len(r.times))
			}
		}
		if len(r.boundsAt) > 0 {
			bounded++
			if r.order != 12 {
				t.Fatalf("bounds_at on an order-%d request", r.order)
			}
		}
	}
	n := float64(len(reqs))
	if f := float64(repeats) / n; f < 0.2 || f > 0.3 {
		t.Errorf("repeat share %.3f, want about a quarter", f)
	}
	if batches == 0 || bounded == 0 {
		t.Errorf("%d batches and %d bounded requests; want both", batches, bounded)
	}
}

func TestOracleRejectsPerturbedMoment(t *testing.T) {
	o := newOracle()
	m := table1(10)
	r, err := singleRequest(o, "model", m.appendSpec(nil), []group{m.group()}, 0.5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= r.order; j++ {
		for _, tc := range []struct {
			rel  float64
			want bool // accepted
		}{{momentRelTol / 4, true}, {momentRelTol * 4, false}, {-momentRelTol * 4, false}} {
			got := append([]float64(nil), r.want[0]...)
			got[j] *= 1 + tc.rel
			body, err := json.Marshal(&server.SolveResponse{Moments: got})
			if err != nil {
				t.Fatal(err)
			}
			err = r.check(200, body)
			if (err == nil) != tc.want {
				t.Errorf("moment %d scaled by 1%+g: check error %v, want accepted=%v", j, tc.rel, err, tc.want)
			}
		}
	}
	body, _ := json.Marshal(&server.SolveResponse{Moments: r.want[0]})
	if err := r.check(503, body); err == nil {
		t.Error("a non-200 status passed the check")
	}
}

func TestCumulantRoundTrip(t *testing.T) {
	// Normal(μ, s²): κ1 = μ, κ2 = s², higher cumulants vanish, and
	// E[X^4] = μ^4 + 6μ²s² + 3s^4.
	mu, s2 := 1.5, 0.7
	m := rawMoments([]float64{0, mu, s2, 0, 0})
	if want := math.Pow(mu, 4) + 6*mu*mu*s2 + 3*s2*s2; math.Abs(m[4]-want) > 1e-12*want {
		t.Fatalf("E[X^4] = %g, want %g", m[4], want)
	}
	k := cumulants(m)
	for j, want := range []float64{0, mu, s2, 0, 0} {
		if math.Abs(k[j]-want) > 1e-12 {
			t.Fatalf("κ%d = %g, want %g", j, k[j], want)
		}
	}
}

// TestOracleMatchesServer sends each workload's warm-up and first requests
// through a real handler and checks them, logging the worst relative error
// so the oracle's tolerance can be judged against it.
func TestOracleMatchesServer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := 60
			switch w {
			case largeCold, composedKron:
				if testing.Short() {
					t.Skip("solves of 68,921+ states")
				}
				n = 2
			}
			o := newOracle()
			warm, err := w.warmup(o)
			if err != nil {
				t.Fatal(err)
			}
			st, err := w.newStream(o, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			s := server.New(w.opts)
			defer func() { _ = s.Shutdown(context.Background()) }()
			h := s.Handler()
			worst := 0.0
			for i := 0; i < len(warm)+n; i++ {
				r := warm[min(i, len(warm)-1)]
				if i >= len(warm) {
					if r, err = st.next(); err != nil {
						t.Fatal(err)
					}
				}
				status, body := serve(h, r)
				if err := r.check(status, body); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				worst = math.Max(worst, worstRelErr(t, r, body))
			}
			t.Logf("worst relative moment error %.3g (tolerance %g)", worst, momentRelTol)
		})
	}
}

func worstRelErr(t *testing.T, r *request, body []byte) float64 {
	t.Helper()
	var got [][]float64
	if r.path == batchPath {
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for _, p := range resp.Items[0].Points {
			got = append(got, p.Moments)
		}
	} else {
		var resp server.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		got = [][]float64{resp.Moments}
	}
	worst := 0.0
	for i := range got {
		for j := range got[i] {
			worst = math.Max(worst, math.Abs(got[i][j]-r.want[i][j])/math.Abs(r.want[i][j]))
		}
	}
	return worst
}

func TestSelfTimes(t *testing.T) {
	// request [0,100] ⊃ decode [0,10], solve [10,90] ⊃ sweep [20,80],
	// encode [90,100]. Self: request 0, solve 20, sweep 60.
	spans := []span{
		{ID: 1, Name: "server.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.decode", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "core.solve", Start: 10, End: 90},
		{ID: 4, Parent: 3, Name: "sparse.sweep", Start: 20, End: 80},
		{ID: 5, Parent: 1, Name: "server.encode", Start: 90, End: 100},
	}
	want := map[string]time.Duration{
		"server.request": 0, "server.decode": 10, "core.solve": 20, "sparse.sweep": 60, "server.encode": 10,
	}
	got := selfTimes(spans)
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, got[name], d)
		}
	}
	ls := (&replayer{}).finish(&layerSample{}, spans)
	if ls.sum != 100 {
		t.Errorf("layer sum %d, want 100 (every non-root self time)", ls.sum)
	}
}

func TestTracedReplayFollowsHandler(t *testing.T) {
	o := newOracle()
	m := table1(1)
	r, err := singleRequest(o, "model", m.appendSpec(nil), []group{m.group()}, 0.5, 12, []float64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	rp := &replayer{tr: &tracer{t0: time.Now()}, prepared: map[string]*core.Prepared{}, census: map[string]int{}}
	names := func(ls *layerSample) string {
		var out []string
		for _, lm := range layerMetrics {
			if _, ok := ls.self[lm.span]; ok {
				out = append(out, lm.span)
			}
		}
		return strings.Join(out, ",")
	}
	cases := []struct {
		hp   handlerPath
		want string
	}{
		{handlerPath{}, "server.decode,spec.hash,spec.build,core.prepare,core.solve,sparse.sweep,momentbounds.bounds,server.encode"},
		{handlerPath{preparedHit: true}, "server.decode,spec.hash,core.solve,sparse.sweep,momentbounds.bounds,server.encode"},
		{handlerPath{cacheHit: true}, "server.decode,spec.hash"},
	}
	for i, tc := range cases {
		ls, err := rp.replay(i+1, r, tc.hp)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(ls); got != tc.want {
			t.Errorf("%+v: layers %s, want %s", tc.hp, got, tc.want)
		}
	}
	if len(rp.census) != 1 {
		t.Errorf("census %v, want one sweep shape", rp.census)
	}
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	if p := percentile(s, 50); p != 50 {
		t.Errorf("p50 = %d, want 50", p)
	}
	if p := percentile(s, 90); p != 90 || beyond(s, p) != 10 {
		t.Errorf("p90 = %d with %d beyond, want 90 with 10", p, beyond(s, p))
	}
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T, key string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def map[string]json.RawMessage
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(def[key], &metrics); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range metrics {
		names[m.Name] = true
	}
	return names
}

func checkResult(t *testing.T, res *result, want map[string]bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v: want correct with attempts", res)
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
}

func TestRunTimedReportsEveryEndToEndMetric(t *testing.T) {
	res, err := runTimed(smallMix, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, benchmarkNames(t, "end_to_end"))
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("%s = %g, want > 0", name, m.Value)
		}
	}
}

func TestRunTracedReportsEveryLayerMetric(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runTraced(midsizeWarm, 1, 0.3, out)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, benchmarkNames(t, "per_layer"))
	if res.Metrics["sparse.iterations"].Value == 0 || res.Metrics["core.prepare_ms"].Value == 0 {
		t.Errorf("midsize-warm traced no sweep or no prepare: %+v", res.Metrics)
	}
	if info, err := os.Stat(out); err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
