package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"somrm/internal/core"
	"somrm/internal/momentbounds"
	"somrm/internal/server"
	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// The traced run replays each request through the layers' public entry
// points, in the order the handler calls them, and records a span around
// each call. It calls only the layers the handler ran for that request —
// read from the server's hit/miss counters around the handler call — so a
// result-cache hit stops after spec.hash and a prepared-model hit skips
// build and prepare. The sweep runs inside core.solve, where the benchmark
// cannot wrap it; its span is rebuilt from Stats.SweepNS as a child of the
// solve span.

// span is one timed call. Times are nanoseconds since the trace began.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 for a request's root
	Req    int            `json:"req"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a span and returns its id.
func (tr *tracer) begin(req, parent int, name string) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: tr.now()})
	return id
}

func (tr *tracer) end(id int) { tr.spans[id-1].End = tr.now() }

// add records a span whose interval is already known.
func (tr *tracer) add(req, parent int, name string, start, end int64, attrs map[string]any) {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end, Attrs: attrs})
}

// selfTimes returns each span name's total self time — its duration minus
// the time its children cover — over the given spans. Children never
// overlap each other, since every layer call is sequential.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// handlerPath is what the handler did for one request.
type handlerPath struct {
	cacheHit    bool
	preparedHit bool
}

// replayer re-runs requests through the layers.
type replayer struct {
	tr *tracer
	// prepared mirrors the server's prepared-model cache for models the
	// workload reuses; a handler prepared hit on a model the replayer has
	// not built yet is built outside any span.
	prepared map[string]*core.Prepared
	// census counts sweeps by format, kernel, blocking depth and workers.
	census map[string]int
}

// maxPrepared caps the replayer's model cache: only small-mix (3 models),
// midsize-warm and composed-kron (1 each) reuse models.
const maxPrepared = 8

// layerSample is one replayed request's per-layer self times plus the
// sweep's iteration figures.
type layerSample struct {
	self    map[string]time.Duration
	sum     time.Duration // all layer self time, excluding the root
	g       int           // sweep iterations, 0 without a sweep
	nsPerRI float64       // sweep ns per row-iteration
}

// replay runs one request through the layers the handler used.
func (rp *replayer) replay(id int, r *request, hp handlerPath) (*layerSample, error) {
	tr := rp.tr
	first := len(tr.spans)
	root := tr.begin(id, 0, "server.request")

	s := tr.begin(id, root, "server.decode")
	var single server.SolveRequest
	var batch server.BatchRequest
	var err error
	if r.path == batchPath {
		err = json.Unmarshal(r.body, &batch)
	} else {
		err = json.Unmarshal(r.body, &single)
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("replay decode: %w", err)
	}
	specs := single.Compose
	if r.path == batchPath {
		specs = []*spec.Model{batch.Model}
	} else if single.Model != nil {
		specs = []*spec.Model{single.Model}
	}

	s = tr.begin(id, root, "spec.hash")
	var key []byte
	for _, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			return nil, fmt.Errorf("replay hash: %w", err)
		}
		key = append(key, h[:]...)
	}
	tr.end(s)
	ls := &layerSample{}
	if hp.cacheHit {
		tr.end(root)
		return rp.finish(ls, tr.spans[first:]), nil
	}

	k := hex.EncodeToString(key)
	prep, ok := rp.prepared[k]
	switch {
	case hp.preparedHit && ok:
	case hp.preparedHit:
		if prep, err = build(specs, nil, 0); err != nil {
			return nil, err
		}
	default:
		if prep, err = build(specs, tr, id, root); err != nil {
			return nil, err
		}
	}
	if !ok && len(rp.prepared) < maxPrepared {
		rp.prepared[k] = prep
	}

	times, order := r.times, r.order
	s = tr.begin(id, root, "core.solve")
	opts := &core.Options{Epsilon: core.DefaultEpsilon}
	var results []*core.Result
	if r.path == batchPath {
		results, err = prep.AccumulatedRewardAtContext(context.Background(), times, order, opts)
	} else {
		var res *core.Result
		res, err = prep.AccumulatedRewardContext(context.Background(), times[0], order, opts)
		results = []*core.Result{res}
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("replay solve: %w", err)
	}
	st := results[0].Stats
	for _, res := range results {
		ls.g = max(ls.g, res.Stats.G)
	}
	if st.SweepNS > 0 {
		rows := prep.Model().N()
		attrs := map[string]any{
			"format":         st.MatrixFormat,
			"kernel":         st.SweepKernel,
			"temporal_block": st.TemporalBlock,
			"workers":        sparse.PlanWorkers(0, rows),
			"rows":           rows,
			"iterations":     ls.g,
		}
		start := tr.spans[s-1].Start
		tr.add(id, s, "sparse.sweep", start, start+st.SweepNS, attrs)
		rp.census[fmt.Sprintf("format=%s kernel=%s temporal_block=%d workers=%d", st.MatrixFormat, st.SweepKernel, st.TemporalBlock, attrs["workers"])]++
		ls.nsPerRI = float64(st.SweepNS) / float64(rows*ls.g)
	}

	if len(r.boundsAt) > 0 {
		s = tr.begin(id, root, "momentbounds.bounds")
		for _, res := range results {
			est, err := momentbounds.New(res.Moments)
			if err != nil {
				return nil, fmt.Errorf("replay bounds: %w", err)
			}
			for _, x := range r.boundsAt {
				if _, err := est.CDFBounds(x); err != nil {
					return nil, fmt.Errorf("replay bounds: %w", err)
				}
			}
		}
		tr.end(s)
	}

	s = tr.begin(id, root, "server.encode")
	var out any
	if r.path == batchPath {
		item := server.BatchItemResult{Status: server.BatchStatusOK}
		for _, res := range results {
			item.Points = append(item.Points, server.BatchPoint{T: res.T, Moments: res.Moments})
		}
		out = &server.BatchResponse{Items: []server.BatchItemResult{item}}
	} else {
		out = &server.SolveResponse{Method: server.MethodRandomization, T: times[0], Order: order, Moments: results[0].Moments}
	}
	_, err = json.Marshal(out)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("replay encode: %w", err)
	}
	tr.end(root)
	return rp.finish(ls, tr.spans[first:]), nil
}

func (rp *replayer) finish(ls *layerSample, spans []span) *layerSample {
	ls.self = selfTimes(spans)
	for name, d := range ls.self {
		if name != "server.request" {
			ls.sum += d
		}
	}
	return ls
}

// build runs spec.build, core.compose (composed requests) and core.prepare,
// each under a span when tr is non-nil.
func build(specs []*spec.Model, tr *tracer, ids ...int) (*core.Prepared, error) {
	call := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		s := tr.begin(ids[0], ids[1], name)
		defer tr.end(s)
		return f()
	}
	built := make([]*core.Model, len(specs))
	if err := call("spec.build", func() error {
		for i, sp := range specs {
			m, err := sp.Build()
			if err != nil {
				return fmt.Errorf("replay build: %w", err)
			}
			built[i] = m
		}
		return nil
	}); err != nil {
		return nil, err
	}
	model := built[0]
	if len(built) > 1 {
		if err := call("core.compose", func() error {
			var err error
			model, err = core.ComposeAll(built...)
			return err
		}); err != nil {
			return nil, fmt.Errorf("replay compose: %w", err)
		}
	}
	var prep *core.Prepared
	if err := call("core.prepare", func() error {
		var err error
		prep, err = core.Prepare(model)
		return err
	}); err != nil {
		return nil, fmt.Errorf("replay prepare: %w", err)
	}
	return prep, nil
}

// layerMetrics maps each per-layer metric to the span name whose self time
// it reports.
var layerMetrics = []struct{ metric, span string }{
	{"server.decode_ms", "server.decode"},
	{"spec.hash_ms", "spec.hash"},
	{"spec.build_ms", "spec.build"},
	{"core.compose_ms", "core.compose"},
	{"core.prepare_ms", "core.prepare"},
	{"core.solve_self_ms", "core.solve"},
	{"sparse.sweep_ms", "sparse.sweep"},
	{"momentbounds.bounds_ms", "momentbounds.bounds"},
	{"server.encode_ms", "server.encode"},
}

// runTraced sends each request through the handler (untraced, for the
// handler latency and its hit/miss path) and then replays it through the
// layers under spans. It returns the per-layer metrics: each is the median
// over the requests that ran the layer (0 when none did).
func runTraced(w *workload, seed int64, seconds float64, outPath string) (*result, error) {
	o := newOracle()
	st, err := w.newStream(o, seed, 0)
	if err != nil {
		return nil, err
	}
	s, _, warm, warmPaths, err := setUpRepeated(w, o)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	h := s.Handler()
	m := s.Metrics()
	rp := &replayer{tr: &tracer{t0: time.Now()}, prepared: map[string]*core.Prepared{}, census: map[string]int{}}
	// The warm-up requests are replayed too, so the set-up layers (build,
	// compose, prepare) are measured on the warm workloads.
	var samples []*layerSample
	for i, r := range warm {
		ls, err := rp.replay(-1-i, r, warmPaths[i])
		if err != nil {
			return nil, err
		}
		samples = append(samples, ls)
	}
	runtime.GC()

	hits0, misses0 := m.CacheHits.Load(), m.CacheMisses.Load()
	phits0, pmisses0 := m.PreparedHits.Load(), m.PreparedMisses.Load()
	// latMS and sums pair each timed request's untraced handler latency
	// with its traced layer sum, for server.self_ms.
	var latMS, sums []float64
	var t tally
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for id := 1; time.Now().Before(deadline); id++ {
		r, err := st.next()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		hp, err := serveObserved(s, h, r)
		latMS = append(latMS, ms(time.Since(t0)))
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		ls, err := rp.replay(id, r, hp)
		if err != nil {
			t.fail(err)
			continue
		}
		samples = append(samples, ls)
		sums = append(sums, ms(ls.sum))
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("no request replayed")
	}

	metrics := map[string]metric{}
	for _, lm := range layerMetrics {
		var v []float64
		for _, ls := range samples {
			if d, ok := ls.self[lm.span]; ok {
				v = append(v, ms(d))
			}
		}
		metrics[lm.metric] = metric{median(v), "ms"}
	}
	var g, nsri []float64
	for _, ls := range samples {
		if ls.g > 0 {
			g = append(g, float64(ls.g))
			nsri = append(nsri, ls.nsPerRI)
		}
	}
	metrics["sparse.iterations"] = metric{median(g), "count"}
	metrics["sparse.ns_per_row_iter"] = metric{median(nsri), "ns"}
	metrics["server.self_ms"] = metric{median(latMS) - median(sums), "ms"}
	metrics["server.cache_hit_ratio"] = metric{ratio(m.CacheHits.Load()-hits0, m.CacheMisses.Load()-misses0), "ratio"}
	metrics["server.prepared_hit_ratio"] = metric{ratio(m.PreparedHits.Load()-phits0, m.PreparedMisses.Load()-pmisses0), "ratio"}

	keys := make([]string, 0, len(rp.census))
	for k := range rp.census {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("census %s: %s sweeps=%d\n", w.name, k, rp.census[k])
	}
	fmt.Printf("traced %d requests (%d replayed); spans in %s\n", t.attempted, len(samples), outPath)
	if err := writeSpans(outPath, rp.tr.spans, rp.census); err != nil {
		return nil, err
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writeSpans writes one JSON span per line, then the census.
func writeSpans(path string, spans []span, census map[string]int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := enc.Encode(map[string]any{"census": census}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
