package server

import (
	"strconv"
	"testing"

	"somrm/internal/core"
)

// ingestStates is the large cold-request shape: half the paper's Table 2
// ON–OFF model (N = 100,000 sources), a ≈10 MB spec.
const ingestStates = 100_001

// onOffBody renders a /v1/solve body for the n-state ON–OFF birth–death
// chain (i→i+1 at (N−i)β, i→i−1 at iα, drift C − i, variance 10i, all
// sources OFF at t=0) in the compact form clients ship: transitions in
// row order, shortest float formatting.
func onOffBody(n int, beta float64) []byte {
	const alpha, sigma2 = 4.0, 10.0
	sources := n - 1
	f := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	b := []byte(`{"model":{"states":`)
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
	return append(b, `]},"t":0.001,"order":3}`...)
}

// ingestSink and hashSink keep the benchmarked results alive.
var (
	ingestSink any
	hashSink   [32]byte
)

// BenchmarkIngest measures each layer a cold large request passes
// through before the randomization sweep starts, at the large-cold shape:
// decode (body bytes → SolveRequest), hash (canonical spec digest), build
// (spec → validated core.Model) and prepare (uniformized matrices).
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
