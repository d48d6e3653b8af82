package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"

	"somrm/internal/server"
)

const (
	solvePath = "/v1/solve"
	batchPath = "/v1/solve/batch"
)

// request is one generated call: the endpoint, its body, and the oracle's
// expectation for every time point it asks for.
type request struct {
	path     string
	body     []byte
	times    []float64
	order    int
	boundsAt []float64
	// want[i] holds the oracle's raw moments at times[i].
	want [][]float64
}

// check validates a handler response against the oracle. Any non-200
// status, malformed body, failed batch item, or moment outside the oracle's
// tolerance is an error.
func (r *request) check(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if r.path == batchPath {
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		if len(resp.Items) != 1 || resp.Items[0].Status != server.BatchStatusOK {
			return fmt.Errorf("batch response: %.200s", body)
		}
		pts := resp.Items[0].Points
		if len(pts) != len(r.times) {
			return fmt.Errorf("batch: %d points, want %d", len(pts), len(r.times))
		}
		for i, p := range pts {
			if p.T != r.times[i] {
				return fmt.Errorf("batch point %d: t = %g, want %g", i, p.T, r.times[i])
			}
			if err := checkMoments(p.Moments, r.want[i]); err != nil {
				return fmt.Errorf("batch t=%g: %w", p.T, err)
			}
		}
		return nil
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode solve response: %w", err)
	}
	if err := checkMoments(resp.Moments, r.want[0]); err != nil {
		return fmt.Errorf("t=%g order %d: %w", r.times[0], r.order, err)
	}
	return checkBounds(resp.Bounds, r.boundsAt)
}

// onOff is an ON–OFF multiplexer: capacity C, N sources. Its background
// chain is the birth–death chain of section 7: state i counts the ON
// sources, i→i+1 at rate (N−i)β, i→i−1 at rate iα, drift C − iR, variance
// iσ², starting with every source OFF.
type onOff struct {
	C   float64
	N   int
	Src source
}

func (m onOff) group() group { return group{Src: m.Src, N: m.N, C: m.C} }

// appendSpec appends the model's JSON spec (internal/spec schema). It
// writes the JSON by hand into a reusable buffer, so generating a
// 100,001-state spec costs tens of milliseconds and little garbage.
func (m onOff) appendSpec(b []byte) []byte {
	f := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	b = append(b, `{"states":`...)
	b = strconv.AppendInt(b, int64(m.N+1), 10)
	b = append(b, `,"transitions":[`...)
	for i := 0; i < m.N; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"rate":`...)
		b = f(b, float64(m.N-i)*m.Src.Beta)
		b = append(b, `},{"from":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"rate":`...)
		b = f(b, float64(i+1)*m.Src.Alpha)
		b = append(b, '}')
	}
	b = append(b, `],"rates":[`...)
	for i := 0; i <= m.N; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(b, m.C-float64(i)*m.Src.R)
	}
	b = append(b, `],"variances":[`...)
	for i := 0; i <= m.N; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(b, float64(i)*m.Src.Sigma2)
	}
	b = append(b, `],"initial":[1`...)
	for i := 0; i < m.N; i++ {
		b = append(b, ",0"...)
	}
	return append(b, "]}"...)
}

// solveBody appends a /v1/solve body around a pre-rendered model (or
// compose list) fragment.
func solveBody(b []byte, modelKey string, model []byte, t float64, order int, boundsAt []float64) []byte {
	b = append(b, `{"`...)
	b = append(b, modelKey...)
	b = append(b, `":`...)
	b = append(b, model...)
	b = append(b, `,"t":`...)
	b = strconv.AppendFloat(b, t, 'g', -1, 64)
	b = append(b, `,"order":`...)
	b = strconv.AppendInt(b, int64(order), 10)
	if len(boundsAt) > 0 {
		b = append(b, `,"bounds_at":[`...)
		for i, x := range boundsAt {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// stream generates one client's requests. Generation is the benchmark's
// own work: single-client workloads exclude it from every measured
// interval, and small-mix renders its requests before the clock starts.
type stream interface {
	next() (*request, error)
}

// workload is one traffic mix against one server.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients int
	// opts are the server options; every workload keeps the defaults
	// except large-cold's body cap and prepared-cache size.
	opts server.Options
	// tailPct is the latency percentile reported as latency_tail_ms: the
	// highest percentile on the ladder with at least ten samples beyond it
	// at the workload's usual sample count. It is fixed per workload so a
	// run's sample count never switches which percentile is reported.
	tailPct float64
	// warmup returns the set-up requests: the prepared-model fill for the
	// warm workloads, one discarded cold request for large-cold.
	warmup func(o *oracle) ([]*request, error)
	// newStream returns client c's request stream for the seed.
	newStream func(o *oracle, seed int64, client int) (stream, error)
}

var workloads = []*workload{smallMix, midsizeWarm, largeCold, composedKron}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seededRand derives one client's generator from the workload seed.
func seededRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
}

// weyl is a golden-ratio sequence in [0, 1) from a seeded start. Successive
// values never repeat and spread evenly over the interval whatever the
// seed, so the share of cheap and expensive requests in a run does not
// depend on the seed.
type weyl struct{ u float64 }

func newWeyl(seed int64, client int) *weyl { return &weyl{seededRand(seed, client).Float64()} }

func (w *weyl) next() float64 {
	w.u += 0.6180339887498949
	w.u -= math.Floor(w.u)
	return w.u
}

// ---------------------------------------------------------------------------
// small-mix: the paper's Table 1 model at σ² ∈ {0, 1, 10}.

var table1Sigma2 = []float64{0, 1, 10}

func table1(sigma2 float64) onOff {
	return onOff{C: 32, N: 32, Src: source{Alpha: 4, Beta: 3, R: 1, Sigma2: sigma2}}
}

// paperGrid is the 20-point time grid 0.05, 0.10, …, 1.0 of figs 3–7.
func paperGrid() []float64 {
	g := make([]float64, 20)
	for i := range g {
		g[i] = float64(i+1) / 20
	}
	return g
}

const (
	smallRing    = 1000 // requests rendered per client before the clock starts: 50 blocks
	smallHistory = 8    // repeats copy one of this many most recent single solves
)

// smallMix exists because its requests take about a millisecond: the
// handler, hashing, the result cache and momentbounds are most of the cost,
// and cache writes run beside cache reads.
var smallMix = &workload{
	name:    "small-mix",
	clients: 2,
	tailPct: 99.9,
	// The warm-up prepares the three models and fills the result cache with
	// the 60 order-3 grid solves the timed mix keeps asking for, so the
	// timed window starts in its steady state.
	warmup: func(o *oracle) ([]*request, error) {
		var out []*request
		for _, s2 := range table1Sigma2 {
			m := table1(s2)
			spec := m.appendSpec(nil)
			for _, t := range paperGrid() {
				r, err := singleRequest(o, "model", spec, []group{m.group()}, t, 3, nil)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
		return out, nil
	},
	newStream: func(o *oracle, seed int64, client int) (stream, error) {
		rng := seededRand(seed, client)
		specs := make([][]byte, len(table1Sigma2))
		for i, s2 := range table1Sigma2 {
			specs[i] = table1(s2).appendSpec(nil)
		}
		grid := paperGrid()
		// Each kind walks its (σ², t) combinations in seeded permutations,
		// so every combination appears equally often whatever the seed.
		points := len(table1Sigma2) * len(grid)
		single3, bounded := &cycler{rng: rng, n: points}, &cycler{rng: rng, n: points}
		batches := &cycler{rng: rng, n: len(table1Sigma2)}
		var ring, singles []*request
		for len(ring) < smallRing {
			block := append([]smallKind(nil), smallBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, kind := range block {
				if kind == smallRepeat && len(singles) > 0 {
					// An exact repeat of a recent single solve: a
					// result-cache hit.
					ring = append(ring, singles[len(singles)-1-rng.Intn(min(smallHistory, len(singles)))])
					continue
				}
				var r *request
				var err error
				switch kind {
				case smallBatch3, smallBatch12:
					k := batches.next()
					m := table1(table1Sigma2[k])
					order := 3
					if kind == smallBatch12 {
						order = 12
					}
					r, err = batchRequest(o, specs[k], []group{m.group()}, grid, order)
				case smallBounded:
					p := bounded.next()
					k, m := p/len(grid), table1(table1Sigma2[p/len(grid)])
					r, err = boundedRequest(o, rng, specs[k], []group{m.group()}, grid[p%len(grid)])
				default:
					p := single3.next()
					k, m := p/len(grid), table1(table1Sigma2[p/len(grid)])
					r, err = singleRequest(o, "model", specs[k], []group{m.group()}, grid[p%len(grid)], 3, nil)
				}
				if err != nil {
					return nil, err
				}
				ring = append(ring, r)
				if r.path == solvePath {
					singles = append(singles, r)
				}
			}
		}
		return &ringStream{reqs: ring}, nil
	},
}

// cycler walks seeded permutations of n parameter combinations, one whole
// permutation after another.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	v := c.perm[0]
	c.perm = c.perm[1:]
	return v
}

// smallKind is a request type of the small-mix.
type smallKind int

const (
	smallRepeat  smallKind = iota // exact repeat of a recent request
	smallSingle3                  // order-3 solve at a grid point
	smallBounded                  // order-12 solve with bounds_at
	smallBatch3                   // order-3 batch over the 20-point grid
	smallBatch12                  // order-12 batch over the 20-point grid
)

// smallBlock fixes the mix of every 20 consecutive requests (shuffled per
// block), so a run's share of expensive requests does not depend on the
// seed: 5 repeats, 2 order-3 solves, 11 bounded order-12 solves and 2
// batches. The order-3 solves' 60 keys are cached in set-up and stay
// cached, so 35% of requests hit the result cache and the median latency falls inside the
// spread-out costs of the order-12 solves, not on the edge between hits
// and misses.
var smallBlock = []smallKind{
	smallRepeat, smallRepeat, smallRepeat, smallRepeat, smallRepeat,
	smallSingle3, smallSingle3,
	smallBounded, smallBounded, smallBounded, smallBounded, smallBounded, smallBounded,
	smallBounded, smallBounded, smallBounded, smallBounded, smallBounded,
	smallBatch3, smallBatch12,
}

// boundedRequest is an order-12 solve with bounds at three levels around
// the mean, jittered by the seed so each has a result-cache key of its own.
func boundedRequest(o *oracle, rng *rand.Rand, spec []byte, groups []group, t float64) (*request, error) {
	want, err := o.moments(groups, t, 2)
	if err != nil {
		return nil, err
	}
	mean, sd := want[1], math.Sqrt(want[2]-want[1]*want[1])
	var boundsAt []float64
	for _, z := range []float64{-1.5, 0, 1.5} {
		x := mean + (z+0.5*rng.Float64()-0.25)*sd
		boundsAt = append(boundsAt, math.Round(x*1e6)/1e6)
	}
	return singleRequest(o, "model", spec, groups, t, 12, boundsAt)
}

// ringStream cycles through pre-rendered requests. The ring is long
// enough that an order-12 request's unique key has left the 256-entry
// result cache before it comes round again.
type ringStream struct {
	reqs []*request
	i    int
}

func (s *ringStream) next() (*request, error) {
	r := s.reqs[s.i%len(s.reqs)]
	s.i++
	return r, nil
}

func singleRequest(o *oracle, modelKey string, model []byte, groups []group, t float64, order int, boundsAt []float64) (*request, error) {
	want, err := o.moments(groups, t, order)
	if err != nil {
		return nil, err
	}
	return &request{
		path:     solvePath,
		body:     solveBody(nil, modelKey, model, t, order, boundsAt),
		times:    []float64{t},
		order:    order,
		boundsAt: boundsAt,
		want:     [][]float64{want},
	}, nil
}

func batchRequest(o *oracle, model []byte, groups []group, times []float64, order int) (*request, error) {
	r := &request{path: batchPath, times: times, order: order}
	for _, t := range times {
		want, err := o.moments(groups, t, order)
		if err != nil {
			return nil, err
		}
		r.want = append(r.want, want)
	}
	b := append([]byte(`{"model":`), model...)
	b = append(b, `,"items":[{"times":[`...)
	for i, t := range times {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, t, 'g', -1, 64)
	}
	b = append(b, `],"order":`...)
	b = strconv.AppendInt(b, int64(order), 10)
	r.body = append(b, "}]}"...)
	return r, nil
}

// ---------------------------------------------------------------------------
// midsize-warm and composed-kron: one prepared model, a distinct t per
// request.

// timeStream draws a distinct t per request in [lo, hi) against one fixed
// model fragment, so every request misses the result cache and hits the
// prepared-model cache.
type timeStream struct {
	o        *oracle
	seq      *weyl
	modelKey string
	model    []byte
	groups   []group
	lo, hi   float64
}

func (s *timeStream) next() (*request, error) {
	t := s.lo + (s.hi-s.lo)*s.seq.next()
	return singleRequest(s.o, s.modelKey, s.model, s.groups, t, 3, nil)
}

var midsize = onOff{C: 2000, N: 2000, Src: source{Alpha: 4, Beta: 3, R: 1, Sigma2: 10}}

// midsizeWarm exists because the sweep is most of each request, on the
// scalar csr64 reference path every model below 16,384 states takes.
var midsizeWarm = &workload{
	name:    "midsize-warm",
	clients: 1,
	tailPct: 95,
	warmup: func(o *oracle) ([]*request, error) {
		r, err := singleRequest(o, "model", midsize.appendSpec(nil), []group{midsize.group()}, 0.01, 3, nil)
		return []*request{r}, err
	},
	newStream: func(o *oracle, seed int64, client int) (stream, error) {
		return &timeStream{o: o, seq: newWeyl(seed, client), modelKey: "model",
			model: midsize.appendSpec(nil), groups: []group{midsize.group()}, lo: 0.02, hi: 0.1}, nil
	},
}

// kronParts are the three 41-state components of composed-kron: 68,921
// product states, above core.ComposeMaterializeThreshold (2^16), so the
// composed model is matrix-free.
var kronParts = []onOff{
	{C: 40, N: 40, Src: source{Alpha: 4, Beta: 3, R: 1, Sigma2: 0}},
	{C: 40, N: 40, Src: source{Alpha: 4, Beta: 3, R: 1, Sigma2: 1}},
	{C: 40, N: 40, Src: source{Alpha: 4, Beta: 3, R: 1, Sigma2: 10}},
}

func composeFragment() ([]byte, []group) {
	b := []byte{'['}
	var groups []group
	for i, m := range kronParts {
		if i > 0 {
			b = append(b, ',')
		}
		b = m.appendSpec(b)
		groups = append(groups, m.group())
	}
	return append(b, ']'), groups
}

// composedKron exists because nothing else runs core.ComposeAll or the
// matrix-free KronSum sweep.
var composedKron = &workload{
	name:    "composed-kron",
	clients: 1,
	tailPct: 75,
	warmup: func(o *oracle) ([]*request, error) {
		frag, groups := composeFragment()
		r, err := singleRequest(o, "compose", frag, groups, 0.03, 3, nil)
		return []*request{r}, err
	},
	newStream: func(o *oracle, seed int64, client int) (stream, error) {
		frag, groups := composeFragment()
		return &timeStream{o: o, seq: newWeyl(seed, client), modelKey: "compose",
			model: frag, groups: groups, lo: 0.045, hi: 0.06}, nil
	},
}

// ---------------------------------------------------------------------------
// large-cold: a distinct 100,001-state model per request.

const (
	largeN = 100_000
	largeT = 0.001
)

// largeModel is half the Table 2 model with the given OFF→ON rate. β < α
// keeps the uniformization rate q = Nα = 4N, so qt and G stay fixed while
// every request is a new model.
func largeModel(beta float64) onOff {
	return onOff{C: largeN, N: largeN, Src: source{Alpha: 4, Beta: beta, R: 1, Sigma2: 10}}
}

// coldStream renders a fresh model per request into reused buffers; a
// request's body is valid until the next call.
type coldStream struct {
	o          *oracle
	seq        *weyl
	spec, body []byte
}

func (s *coldStream) next() (*request, error) {
	beta := math.Round((2+1.9*s.seq.next())*1000) / 1000
	return s.request(beta)
}

func (s *coldStream) request(beta float64) (*request, error) {
	m := largeModel(beta)
	s.spec = m.appendSpec(s.spec[:0])
	s.body = solveBody(s.body[:0], "model", s.spec, largeT, 3, nil)
	want, err := s.o.moments([]group{m.group()}, largeT, 3)
	if err != nil {
		return nil, err
	}
	return &request{
		path:  solvePath,
		body:  s.body,
		times: []float64{largeT},
		order: 3,
		want:  [][]float64{want},
	}, nil
}

// largeCold exists because it is the only explicit-matrix workload above
// 16,384 states: decode, hash, build and prepare of a ~10 MB spec, then
// band detection, temporal blocking and AVX2 on the 2-worker team.
var largeCold = &workload{
	name:    "large-cold",
	clients: 1,
	// Its ~10 MB spec exceeds the default 8 MiB body cap. The prepared
	// cache keeps its code path (lookup, insert, evict) but holds one
	// model: at the default 128 entries every distinct model stays
	// resident (~28 MB each), so RSS would climb with the request count
	// and a faster server would read as a memory regression.
	opts:    server.Options{MaxBodyBytes: 64 << 20, PreparedCacheSize: 1},
	tailPct: 50,
	warmup: func(o *oracle) ([]*request, error) {
		// β = 3.95 is outside the stream's [2, 3.9] range, so the
		// discarded warm-up model never repeats a timed one.
		r, err := (&coldStream{o: o}).request(3.95)
		return []*request{r}, err
	},
	newStream: func(o *oracle, seed int64, client int) (stream, error) {
		return &coldStream{o: o, seq: newWeyl(seed, client)}, nil
	},
}
