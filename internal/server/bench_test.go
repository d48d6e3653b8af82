package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"somrm/internal/models"
	"somrm/internal/spec"
)

// benchServer mounts the handler without a TCP listener so the benchmark
// measures the service stack (decode, hash, cache, pool, solve, encode)
// rather than loopback networking.
func benchServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	s := New(Options{Workers: 2, CacheSize: 4096})
	b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s, s.Handler()
}

func benchBody(b *testing.B, t float64) []byte {
	b.Helper()
	body, err := json.Marshal(&SolveRequest{Model: testSpec(0), T: t, Order: 3})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func post(b *testing.B, h http.Handler, body []byte) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// BenchmarkServerSolve records the serving baseline on the paths every
// later scaling change cares about: cache hits (pure service overhead),
// cache misses (service overhead + a real two-state randomization solve),
// and composed misses (the composed-kron body: three 41-state ON–OFF
// components, a distinct t in [0.045, 0.06) per request, three factor
// sweeps and the moment fold).
func BenchmarkServerSolve(b *testing.B) {
	b.Run("cache-hit", func(b *testing.B) {
		s, h := benchServer(b)
		body := benchBody(b, 1)
		post(b, h, body) // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, body)
		}
		b.StopTimer()
		if s.metrics.Solves.Load() != 1 {
			b.Fatalf("cache-hit path solved %d times", s.metrics.Solves.Load())
		}
	})
	b.Run("cache-miss", func(b *testing.B) {
		s, h := benchServer(b)
		// Distinct t per iteration defeats the cache while keeping the
		// solve cost constant (same qt regime).
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = benchBody(b, 1+float64(i)*1e-9)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, bodies[i])
		}
		b.StopTimer()
		if int(s.metrics.Solves.Load()) != b.N {
			b.Fatalf("cache-miss path solved %d times for %d requests", s.metrics.Solves.Load(), b.N)
		}
	})
	b.Run("compose-miss", func(b *testing.B) {
		s, h := benchServer(b)
		comps := make([]*spec.Model, 3)
		for i, s2 := range []float64{0, 1, 10} {
			m, err := models.OnOff(models.OnOffParams{C: 40, N: 40, Alpha: 4, Beta: 3, R: 1, Sigma2: s2})
			if err != nil {
				b.Fatal(err)
			}
			if comps[i], err = spec.FromModel(m); err != nil {
				b.Fatal(err)
			}
		}
		frag, err := json.Marshal(comps)
		if err != nil {
			b.Fatal(err)
		}
		// The body carries only the keys a composed-kron client sends
		// (json.Marshal of a SolveRequest would add "model":null).
		body := func(t float64) []byte {
			return fmt.Appendf(nil, `{"compose":%s,"t":%s,"order":3}`, frag, strconv.FormatFloat(t, 'g', -1, 64))
		}
		bodies := make([][]byte, b.N)
		for i := range bodies {
			bodies[i] = body(0.045 + 0.015*float64(i)/float64(b.N))
		}
		post(b, h, body(0.03)) // prepare the composed model
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, h, bodies[i])
		}
		b.StopTimer()
		if int(s.metrics.Solves.Load()) != b.N+1 {
			b.Fatalf("compose-miss path solved %d times for %d requests", s.metrics.Solves.Load(), b.N+1)
		}
	})
}

// BenchmarkServerPersist measures what cache persistence costs on each
// serving path, persistence off vs on. Hits never touch the journal (the
// append fires only on a fresh cache insert), so the hit rows should
// match within noise; each miss pays one fsynced journal append on top
// of the solve.
func BenchmarkServerPersist(b *testing.B) {
	server := func(b *testing.B, dir string) (*Server, http.Handler) {
		b.Helper()
		s, err := NewWithPersistence(Options{Workers: 2, CacheSize: 8192, PersistDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
		return s, s.Handler()
	}
	for _, mode := range []string{"off", "on"} {
		dir := func(b *testing.B) string {
			if mode == "on" {
				return b.TempDir()
			}
			return ""
		}
		b.Run("cache-hit-persist-"+mode, func(b *testing.B) {
			s, h := server(b, dir(b))
			body := benchBody(b, 1)
			post(b, h, body) // prime
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, body)
			}
			b.StopTimer()
			if s.metrics.Solves.Load() != 1 {
				b.Fatalf("cache-hit path solved %d times", s.metrics.Solves.Load())
			}
		})
		b.Run("cache-miss-persist-"+mode, func(b *testing.B) {
			_, h := server(b, dir(b))
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = benchBody(b, 1+float64(i)*1e-9)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, bodies[i])
			}
		})
	}
}

// benchBatchSpec is a birth-death model big enough that solver work, not
// HTTP plumbing, dominates the measurement.
func benchBatchSpec(k int) *spec.Model {
	n := 50
	sp := &spec.Model{States: n, Rates: make([]float64, n), Variances: make([]float64, n), Initial: make([]float64, n)}
	for i := 0; i < n; i++ {
		sp.Rates[i] = float64(i) / float64(n)
		sp.Variances[i] = 0.1
		if i+1 < n {
			sp.Transitions = append(sp.Transitions,
				spec.Transition{From: i, To: i + 1, Rate: 1 + float64(k)*1e-9},
				spec.Transition{From: i + 1, To: i, Rate: 2})
		}
	}
	sp.Initial[0] = 1
	return sp
}

// batchGrid is the 16-point grid of the BENCHMARKS.md comparison.
func batchGrid() []float64 {
	grid := make([]float64, 16)
	for i := range grid {
		grid[i] = 0.5 * float64(i+1)
	}
	return grid
}

// BenchmarkBatchSolve compares one POST /v1/solve/batch carrying a
// 16-point time grid against 16 sequential POST /v1/solve calls for the
// same points. The result cache is disabled and the model varies per
// iteration, so every iteration starts cold: the batch pays one prepare
// plus one shared coefficient-vector sweep, the loop pays one prepare
// plus sixteen sweeps.
func BenchmarkBatchSolve(b *testing.B) {
	grid := batchGrid()
	b.Run("batch-16pt", func(b *testing.B) {
		s, h := benchServer(b)
		s.cache = newLRU(-1)
		bodies := make([][]byte, b.N)
		for i := range bodies {
			var err error
			bodies[i], err = json.Marshal(&BatchRequest{Model: benchBatchSpec(i), Items: []BatchItem{{Times: grid, Order: 3}}})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/solve/batch", bytes.NewReader(bodies[i]))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.Run("sequential-16pt", func(b *testing.B) {
		_, h := benchServer(b)
		bodies := make([][][]byte, b.N)
		for i := range bodies {
			bodies[i] = make([][]byte, len(grid))
			for k, t := range grid {
				var err error
				bodies[i][k], err = json.Marshal(&SolveRequest{Model: benchBatchSpec(i), T: t, Order: 3})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range bodies[i] {
				post(b, h, bodies[i][k])
			}
		}
	})
}
