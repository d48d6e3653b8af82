GO ?= go

.PHONY: all build test vet ci chaos cluster-smoke restart-smoke serve bench bench-server bench-batch bench-persist bench-ingest bench-sweep bench-sweep-smoke bench-check cover experiments fuzz clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The gate CI runs on every push: build, vet, the full test suite under
# the race detector, and the fuzz seed corpora as plain tests.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run Fuzz ./internal/spec/ ./internal/specfn/ ./internal/sparse/ ./internal/server/

# The resilience gate: chaos suite (fault injection against the real
# server: injected 503s, truncated responses, forced panics, a full
# outage and recovery) plus the hardening tests, under the race
# detector, repeated to shake out schedule-dependent bugs.
chaos:
	$(GO) vet ./internal/server/ ./internal/resilience/ ./internal/testutil/
	$(GO) test -race -run 'Chaos|Panic|Shed|Breaker|Hammer' -count=2 ./internal/server/ ./internal/resilience/

# The cluster failover smoke: three somrm-serve replicas on a
# consistent-hash ring, solved through the cluster client, with replicas
# killed one at a time — rerouted results must be byte-for-byte identical
# to the healthy baseline (see scripts/cluster_smoke.sh).
cluster-smoke:
	bash scripts/cluster_smoke.sh

# The crash/restart smoke: one somrm-serve replica with a persisted
# cache dir, killed -9 mid-storm and warm-restarted over the same dir —
# restored responses must be byte-identical to the healthy baseline with
# zero re-solves (see scripts/restart_smoke.sh).
restart-smoke:
	bash scripts/restart_smoke.sh

# Run the solver HTTP service (see README "Running the server").
serve:
	$(GO) run ./cmd/somrm-serve $(SERVE_FLAGS)

bench:
	$(GO) test -bench=. -benchmem ./...

# The serving baseline tracked in BENCHMARKS.md.
bench-server:
	$(GO) test -bench BenchmarkServerSolve -benchmem -run '^$$' ./internal/server

# The batch-vs-sequential comparison tracked in BENCHMARKS.md.
bench-batch:
	$(GO) test -bench BenchmarkBatchSolve -benchmem -run '^$$' ./internal/server

# The cache-persistence serving-cost comparison tracked in BENCHMARKS.md.
bench-persist:
	$(GO) test -bench BenchmarkServerPersist -benchmem -run '^$$' ./internal/server

# The cold-ingest layer costs tracked in BENCHMARKS.md: decode, hash,
# build and prepare of one 100,001-state ON-OFF spec (the large-cold
# request shape), each timed on its own.
bench-ingest:
	$(GO) test -bench BenchmarkIngest -benchmem -benchtime 10x -run '^$$' ./internal/server

# The randomization-sweep kernel comparison tracked in BENCHMARKS.md:
# serial reference vs the fused kernel at the paper's large-example shape,
# the served small-model solves, the eq. 11 truncation search, and warm
# distinct-t solves on a prepared midsize model (BenchmarkWarmDistinctT),
# recorded as machine-readable JSON (name, median ns/op with its min/max
# over 5 runs, B/op, allocs/op, cores, commit) for committing and diffing
# across revisions.
bench-sweep:
	$(GO) test -bench 'BenchmarkSweep|BenchmarkTruncationPoint|BenchmarkWarmDistinctT' -benchmem -benchtime 10x -count 5 -run '^$$' \
		-timeout 60m ./internal/core | $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	@echo wrote BENCH_sweep.json

# Advisory perf-regression check: re-run the sweep benchmarks and diff
# against the committed BENCH_sweep.json baseline (a new median more than
# 15% above the baseline's max ns/op flags a regression). The fresh
# report stays in the checkout, under the git-ignored .bench_build/. The
# leading `-` keeps the target advisory — timings are machine-dependent,
# so read the report instead of failing the build on it.
bench-check:
	mkdir -p .bench_build
	$(GO) test -bench 'BenchmarkSweep|BenchmarkTruncationPoint' -benchmem -benchtime 10x -count 5 -run '^$$' \
		-timeout 60m ./internal/core | $(GO) run ./cmd/benchjson -o .bench_build/bench_sweep_new.json
	-$(GO) run ./cmd/benchjson -compare BENCH_sweep.json .bench_build/bench_sweep_new.json -tol 0.15

# CI smoke: one iteration per sweep benchmark, just to prove every kernel
# variant still runs end to end at the paper shape. Output is discarded.
bench-sweep-smoke:
	$(GO) test -bench BenchmarkSweep -benchtime 1x -run '^$$' \
		-timeout 30m ./internal/core | $(GO) run ./cmd/benchjson -o /dev/null

cover:
	$(GO) test -cover ./...

# Regenerate every paper table/figure (scaled fig8; use FULL=1 for N=200k).
experiments:
	$(GO) run ./cmd/somrm-experiments all $(if $(FULL),-full,)

fuzz:
	$(GO) test -fuzz FuzzBetaInc -fuzztime 30s ./internal/specfn/
	$(GO) test -fuzz FuzzParseBuild -fuzztime 30s ./internal/spec/
	$(GO) test -fuzz FuzzSpecDecode -fuzztime 30s ./internal/spec/
	$(GO) test -fuzz FuzzCanonicalWriter -fuzztime 30s ./internal/spec/
	$(GO) test -fuzz FuzzSolveRequestDecode -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzBandRoundTrip -fuzztime 30s ./internal/sparse/

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
