package server

import (
	"strconv"
	"testing"

	"somrm/internal/core"
)

// ingestStates is the large cold-request shape: half the paper's Table 2
// ON–OFF model (N = 100,000 sources), a ≈10 MB spec.
const ingestStates = 100_001

// appendOnOff appends the spec of the n-state ON–OFF birth–death chain
// (i→i+1 at (N−i)β, i→i−1 at iα, drift N − i, variance σ²i, all sources
// OFF at t=0, N = n−1 sources) in the compact form clients ship:
// transitions in row order, shortest float formatting.
func appendOnOff(b []byte, n int, beta, sigma2 float64) []byte {
	const alpha = 4.0
	sources := n - 1
	f := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	b = append(b, `{"states":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"transitions":[`...)
	for i := 0; i < n; i++ {
		if i > 0 { // death i → i−1
			b = append(b, `{"from":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(i-1), 10)
			b = append(b, `,"rate":`...)
			b = append(f(b, float64(i)*alpha), "},"...)
		}
		if i < sources { // birth i → i+1
			b = append(b, `{"from":`...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(i+1), 10)
			b = append(b, `,"rate":`...)
			b = append(f(b, float64(sources-i)*beta), "},"...)
		}
	}
	b = append(b[:len(b)-1], `],"rates":[`...)
	for i := 0; i < n; i++ {
		b = append(f(b, float64(sources-i)), ',')
	}
	b = append(b[:len(b)-1], `],"variances":[`...)
	for i := 0; i < n; i++ {
		b = append(f(b, float64(i)*sigma2), ',')
	}
	b = append(b[:len(b)-1], `],"initial":[1`...)
	for i := 1; i < n; i++ {
		b = append(b, ",0"...)
	}
	return append(b, "]}"...)
}

// onOffBody renders the /v1/solve body of the large cold request: the
// n-state ON–OFF chain with σ² = 10.
func onOffBody(n int, beta float64) []byte {
	b := appendOnOff([]byte(`{"model":`), n, beta, 10)
	return append(b, `,"t":0.001,"order":3}`...)
}

// composeBody renders the composed request shape: three 41-state ON–OFF
// components (β = 3; σ² = 0, 1 and 10) under "compose", ≈8.3 KB.
func composeBody() []byte {
	b := []byte(`{"compose":[`)
	for i, sigma2 := range []float64{0, 1, 10} {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendOnOff(b, 41, 3, sigma2)
	}
	return append(b, `],"t":0.05,"order":3}`...)
}

// ingestSink and hashSink keep the benchmarked results alive.
var (
	ingestSink any
	hashSink   [32]byte
)

// BenchmarkIngest measures each layer a cold large request passes
// through before the randomization sweep starts, at the large-cold shape:
// decode (body bytes → SolveRequest), hash (canonical spec digest), build
// (spec → validated core.Model) and prepare (uniformized matrices); and
// the decode and hash (the three component digests) of a composed
// request, the bulk of what such a request costs besides its fold.
//
//	go test -bench BenchmarkIngest -benchmem -run '^$' ./internal/server
func BenchmarkIngest(b *testing.B) {
	body := onOffBody(ingestStates, 3.95)
	req, err := decodeSolveRequest(body, nil)
	if err != nil {
		b.Fatal(err)
	}
	model, err := req.Model.Build()
	if err != nil {
		b.Fatal(err)
	}
	compose := composeBody()
	creq, err := decodeSolveRequest(compose, nil)
	if err != nil || len(creq.Compose) != 3 {
		b.Fatalf("compose body: %d components, %v", len(creq.Compose), err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			r, err := decodeSolveRequest(body, nil)
			if err != nil {
				b.Fatal(err)
			}
			ingestSink = r
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := req.Model.Hash()
			if err != nil {
				b.Fatal(err)
			}
			hashSink = h
		}
	})
	b.Run("decode-compose", func(b *testing.B) {
		b.SetBytes(int64(len(compose)))
		for i := 0; i < b.N; i++ {
			r, err := decodeSolveRequest(compose, nil)
			if err != nil {
				b.Fatal(err)
			}
			ingestSink = r
		}
	})
	b.Run("hash-compose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := creq.modelHash()
			if err != nil {
				b.Fatal(err)
			}
			hashSink = h
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := req.Model.Build()
			if err != nil {
				b.Fatal(err)
			}
			ingestSink = m
		}
	})
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.Prepare(model)
			if err != nil {
				b.Fatal(err)
			}
			ingestSink = p
		}
	})
}
