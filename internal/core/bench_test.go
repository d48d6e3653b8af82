package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"somrm/internal/ctmc"
	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// benchModel builds the paper's ON–OFF multiplexer with n-1 sources
// (α = 4, β = 3, C = n-1, R = 1, σ² = 1), all sources initially OFF;
// n = 33 is the Table 1 model.
func benchModel(tb testing.TB, n int, shiftNegative bool) *Model {
	tb.Helper()
	up := make([]float64, n-1)
	down := make([]float64, n-1)
	for i := range up {
		up[i] = float64(n-1-i) * 3
		down[i] = float64(i+1) * 4
	}
	gen, err := ctmc.NewBirthDeath(up, down)
	if err != nil {
		tb.Fatal(err)
	}
	rates := make([]float64, n)
	vars := make([]float64, n)
	for i := range rates {
		rates[i] = float64(n-1) - float64(i)
		if shiftNegative {
			rates[i] -= float64(n) // every drift negative: shift path active
		}
		vars[i] = float64(i)
	}
	pi := make([]float64, n)
	pi[0] = 1
	m, err := New(gen, rates, vars, pi)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// rateModel builds an n-state model over the generator whose off-diagonal
// rates each(i, add) lists for row i (targets outside 0..n-1 are
// dropped), with mixed-sign drifts (the shift path is active), positive
// variances, and all mass initially in the middle state. The shape
// helpers use it to reach the structures the storage policy separates:
// tridiagonal and pentadiagonal bands, bidiagonal pure-birth chains,
// dense-block QBDs.
func rateModel(tb testing.TB, n int, each func(i int, add func(j int, rate float64))) *Model {
	tb.Helper()
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		var exit float64
		each(i, func(j int, rate float64) {
			if j < 0 || j >= n || j == i {
				return
			}
			exit += rate
			if err := b.Add(i, j, rate); err != nil {
				tb.Fatal(err)
			}
		})
		if err := b.Add(i, i, -exit); err != nil {
			tb.Fatal(err)
		}
	}
	gen, err := ctmc.NewGenerator(b.Build())
	if err != nil {
		tb.Fatal(err)
	}
	rates := make([]float64, n)
	vars := make([]float64, n)
	for i := range rates {
		rates[i] = float64(i%7) - 3
		vars[i] = 0.5 + float64(i%3)
	}
	pi := make([]float64, n)
	pi[n/2] = 1
	m, err := New(gen, rates, vars, pi)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// pentadiagonalModel: a birth-death chain with additional two-step jumps,
// bandwidth lo = hi = 2.
func pentadiagonalModel(tb testing.TB, n int) *Model {
	return rateModel(tb, n, func(i int, add func(int, float64)) {
		add(i-2, 1)
		add(i-1, 3)
		add(i+1, 4)
		add(i+2, 0.5)
	})
}

// pureBirthModel: a pure-birth chain ending in an absorbing state, so the
// generator is bidiagonal (lo = 0, hi = 1).
func pureBirthModel(tb testing.TB, n int) *Model {
	return rateModel(tb, n, func(i int, add func(int, float64)) { add(i+1, 3) })
}

// denseQBDModel: levels × b states, every phase coupled to every phase of
// its own and both adjacent levels — block-tridiagonal with dense blocks
// of size b, bandwidth 2b-1.
func denseQBDModel(tb testing.TB, levels, b int) *Model {
	return rateModel(tb, levels*b, func(i int, add func(int, float64)) {
		base := (i/b - 1) * b
		for k := 0; k < 3*b; k++ {
			add(base+k, 0.25+0.5*float64((i+k)%3))
		}
	})
}

// composedDenseModel is the product chain of largeTridiagModel(n) and a
// dense f-state factor (every state reaches every other) as a plain
// model, so solving it sweeps the product: block-tridiagonal with level
// size f, the birth-death factor moving between levels, the dense factor
// within one.
func composedDenseModel(tb testing.TB, n, f int) *Model {
	tb.Helper()
	dense := rateModel(tb, f, func(i int, add func(int, float64)) {
		for j := 0; j < f; j++ {
			add(j, 1+0.25*float64(i+j))
		}
	})
	joint, err := Compose(largeTridiagModel(tb, n), dense)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(joint.Generator(), joint.Rates(), joint.Variances(), joint.Initial())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// onOffModel is the paper's ON–OFF multiplexer of n sources with capacity
// n·r: state i counts the ON sources (OFF→ON rate beta, ON→OFF alpha),
// with drift (n−i)·r and variance i·s2.
func onOffModel(tb testing.TB, n int, alpha, beta, r, s2 float64) *Model {
	tb.Helper()
	up := make([]float64, n)
	down := make([]float64, n)
	for i := range up {
		up[i] = float64(n-i) * beta
		down[i] = float64(i+1) * alpha
	}
	gen, err := ctmc.NewBirthDeath(up, down)
	if err != nil {
		tb.Fatal(err)
	}
	rates := make([]float64, n+1)
	vars := make([]float64, n+1)
	initial := make([]float64, n+1)
	for i := range rates {
		rates[i] = float64(n-i) * r
		vars[i] = float64(i) * s2
	}
	initial[0] = 1
	m, err := New(gen, rates, vars, initial)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// Ablation (DESIGN.md): cost of the negative-drift shift transformation.
// The shift adds only the binomial unshift at the end, so the two runs
// should be nearly identical per op.
func BenchmarkSolveNoShift(b *testing.B) {
	m := benchModel(b, 64, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AccumulatedReward(0.5, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWithShift(b *testing.B) {
	m := benchModel(b, 64, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AccumulatedReward(0.5, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmDistinctT is the midsize-warm serving shape: the
// 2,001-state ON–OFF model (onOffModel(2000, 4, 3, 1, 10), q = 8,000),
// prepared once and warmed like a served model, solved at order 3 at a
// distinct t per op from a Weyl sequence over [0.02, 0.1) (q·t from 160
// to 800, G from 273 to 1,045). Each op times the whole solve, starting
// from the Prepared's state ladder as the served requests do; setup runs
// one pass of 32 points first, so the ladder is in its steady state.
// start-iter/op is the mean iteration the sweeps started from.
func BenchmarkWarmDistinctT(b *testing.B) {
	prep, err := Prepare(onOffModel(b, 2000, 4, 3, 1, 10))
	if err != nil {
		b.Fatal(err)
	}
	const phi = 0.6180339887498949 // the Weyl step, 1/golden ratio
	x := 0.0
	next := func() float64 {
		x += phi
		x -= math.Floor(x)
		return 0.02 + 0.08*x
	}
	for i := 0; i <= 32; i++ {
		tt := 0.01 // the served model's first solve
		if i > 0 {
			tt = next()
		}
		if _, err := prep.AccumulatedReward(tt, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
	var starts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prep.AccumulatedReward(next(), 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		starts += res.Stats.StartIteration
	}
	b.ReportMetric(float64(starts)/float64(b.N), "start-iter/op")
}

// BenchmarkTruncationPoint times the eq. 11 search with its pmf table:
// the paper's large example (qt = 40,000, order 3) and the Table 1
// model's order-12 bounds solves at t = 0.3 and 1 (q = 128, d = 0.25).
func BenchmarkTruncationPoint(b *testing.B) {
	for _, bc := range []struct {
		order int
		qt    float64
	}{{3, 40_000}, {12, 38.4}, {12, 128}} {
		b.Run(fmt.Sprintf("qt%g/order%d", bc.qt, bc.order), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tab poisson.Table
				poissonTable(&tab, bc.qt, bc.order)
				if _, _, err := truncationPoint(&tab, bc.order, 0.25, bc.qt, 1e-9, false, defaultMaxG); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkComposePair(b *testing.B) {
	m := benchModel(b, 16, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compose(m, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures the k = 1..G randomization sweep on the paper's
// large-example shape: a tridiagonal birth-death chain at moment order 3.
// N = 100,001 is the CI smoke size, N = 200,001 the paper's large
// example; constant rates keep qt (and with it G) independent of N.
// Sub-benchmarks select the kernel via Options.SweepWorkers and the
// storage engine via Options.MatrixFormat: "reference" is the serial
// pre-fusion loop on the original 64-bit-index CSR, "fused-compact" the
// fused kernel on one worker over uint32 column indices, "fused-band"
// the tridiagonal band kernel (the sweep loads no indices at all), and
// "fused-auto" the production policy (structure detection picks the
// band kernel here, workers by GOMAXPROCS). The -blocked variants rerun a kernel with temporal
// blocking forced to depth 16 (Options.TemporalBlock), and the
// workers-W[-blocked] variants sweep fused-team sizes at the production
// storage policy. The N32 to N16383 rows measure the crossover around
// the parallel threshold (see the loop's comment), the shape-*
// rows run the storage policy on non-tridiagonal ≈65k-state shapes (see
// that loop's comment), and compose-3x41[-states] solve a matrix-free
// composed model by moment convolution. Apart from the cold rows, each
// model is prepared once so an op measures the sweep, not the per-solve
// uniformization and CSR assembly it shares across kernels. Each group
// builds and prepares its model inside the first of its rows that runs
// (see lazy), so a -bench filter builds only the models of the rows it
// selects.
func BenchmarkSweep(b *testing.B) {
	const (
		order = 3
		tt    = 8.0 // q = 7 -> qt = 56
	)
	for _, n := range []int{100_001, 200_001} {
		prepared := lazyPrepared(func(b *testing.B) *Model { return largeTridiagModel(b, n) })
		for _, bc := range []struct {
			name    string
			workers int
			format  string
			tblock  int
			nosimd  bool
		}{
			{"reference", -1, "", 0, false},
			{"fused-compact", 1, "csr", 1, false},
			{"fused-band", 1, "band", 1, false},
			{"fused-auto", 0, "auto", 0, false},
			// Temporal blocking (Options.TemporalBlock) at the
			// forced depth of 16 (the auto-tuned default) against the
			// unblocked kernels above: same arithmetic bitwise, ~T fewer
			// DRAM sweeps over the state arrays once the state outgrows
			// cache.
			{"fused-compact-blocked", 1, "csr", 16, false},
			{"fused-band-blocked", 1, "band", 16, false},
			// SIMD ablation: the same kernels with the AVX2 bodies
			// switched off by SOMRM_NOSIMD, isolating the vectorization
			// win per storage engine (bitwise identical results either
			// way).
			{"fused-compact-nosimd", 1, "csr", 1, true},
			{"fused-band-nosimd", 1, "band", 1, true},
		} {
			b.Run(fmt.Sprintf("N%d/%s", n, bc.name), func(b *testing.B) {
				prep := prepared(b)
				if bc.nosimd {
					b.Setenv("SOMRM_NOSIMD", "1")
				}
				opts := &Options{SweepWorkers: bc.workers, MatrixFormat: bc.format, TemporalBlock: bc.tblock}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.AccumulatedReward(tt, order, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// Worker-count scaling of the fused kernel at the production
		// storage policy, unblocked and temporally blocked: one
		// BENCH_sweep.json entry per (worker count, blocking) pair, so
		// scaling regressions (a kernel that stops speeding up past two
		// workers, say) are diffable across revisions like the kernel
		// variants above. The counts are fixed rather than derived from
		// the machine so reports from different hosts stay comparable;
		// counts the host cannot actually run in parallel are skipped
		// explicitly instead of silently measuring oversubscription.
		for _, w := range []int{1, 2, 4, 8, 16} {
			for _, tb := range []int{1, 16} {
				name := fmt.Sprintf("N%d/workers-%d", n, w)
				if tb > 1 {
					name += "-blocked"
				}
				b.Run(name, func(b *testing.B) {
					if max := runtime.GOMAXPROCS(0); w > max {
						b.Skipf("worker count %d exceeds GOMAXPROCS=%d; skipping rather than measuring oversubscription", w, max)
					}
					prep := prepared(b)
					opts := &Options{SweepWorkers: w, MatrixFormat: "auto", TemporalBlock: tb}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := prep.AccumulatedReward(tt, order, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}

	// Small and mid-size models around the 8,191-row parallel threshold
	// (N = 32 is a 32-state chain with no rows past its last 4-row group,
	// not the Table 1 model — see the N33 rows below; 2,001 the midsize serving
	// shape, 4,095 the largest of these the automatic policy runs on one
	// worker, 8,191 and 16,383 the smallest it hands a team): the serial
	// reference oracle against the inline 1-worker fused kernel, and a
	// forced 2-worker team, which measures where the team starts to pay
	// and so places the threshold. fused-1-unblocked
	// turns the 1-worker band sweep's L1 temporal blocking off
	// (Options.TemporalBlock = 1), so the blocking shows what it earns.
	// cold-auto times the production path from scratch — Prepare
	// (uniformization) plus the first solve, which pays structure
	// detection and the band conversion. The order12 rows solve moment
	// order 12, the order of every bounds request, on the row-lane band
	// kernel: N32/order12 under the automatic policy and
	// N2001/order12-fused-1 inline on one worker.
	rowOpts := map[string]*Options{
		"reference":         {SweepWorkers: -1},
		"fused-1":           {SweepWorkers: 1},
		"fused-1-unblocked": {SweepWorkers: 1, TemporalBlock: 1},
		"workers-2":         {SweepWorkers: 2},
		"order12":           nil,
		"order12-fused-1":   {SweepWorkers: 1},
	}
	rowOrder := func(row string) int {
		if strings.HasPrefix(row, "order12") {
			return 12
		}
		return order
	}
	full := []string{"reference", "fused-1", "fused-1-unblocked", "workers-2", "cold-auto"}
	for _, sz := range []struct {
		n    int
		rows []string
	}{
		{32, []string{"reference", "fused-1", "workers-2", "cold-auto", "order12"}},
		{2_001, append(full, "order12-fused-1")},
		{4_095, []string{"fused-1", "workers-2"}},
		{8_191, []string{"fused-1", "workers-2"}},
		{16_383, full},
	} {
		model := lazy(func(b *testing.B) *Model { return largeTridiagModel(b, sz.n) })
		prepared := lazyPrepared(model)
		for _, row := range sz.rows {
			opts := rowOpts[row]
			b.Run(fmt.Sprintf("N%d/%s", sz.n, row), func(b *testing.B) {
				if row == "cold-auto" {
					m := model(b)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cold, err := Prepare(m)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := cold.AccumulatedReward(tt, order, nil); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				if max := runtime.GOMAXPROCS(0); opts != nil && opts.SweepWorkers > max {
					b.Skipf("worker count %d exceeds GOMAXPROCS=%d; skipping rather than measuring oversubscription", opts.SweepWorkers, max)
				}
				prep := prepared(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.AccumulatedReward(tt, rowOrder(row), opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// The Table 1 model as small-mix serves it: onOffModel(32, 4, 3, 1,
	// 10), 33 states (so every sweep iteration ends in one masked row
	// group), q = 128, under the automatic policy. order3 and order12 are
	// single solves at t = 0.3 (qt = 38.4), the shape of the single and
	// bounds requests; grid20-* solve the paper's 20-point grid 0.05,
	// 0.10, ..., 1.0 in one AccumulatedRewardAt call, the batch requests.
	// Each row times the whole solve: truncation search, pmf table,
	// sweep, scaling.
	table1 := lazyPrepared(func(b *testing.B) *Model { return onOffModel(b, 32, 4, 3, 1, 10) })
	grid := make([]float64, 20)
	for i := range grid {
		grid[i] = float64(i+1) / 20
	}
	for _, row := range []struct {
		name  string
		order int
		times []float64
	}{
		{"order3", 3, []float64{0.3}},
		{"order12", 12, []float64{0.3}},
		{"grid20-order3", 3, grid},
		{"grid20-order12", 12, grid},
	} {
		b.Run("N33/"+row.name, func(b *testing.B) {
			prep := table1(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.AccumulatedRewardAt(row.times, row.order, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// N2001/impulse is the impulse-reward shape: the 2,001-state chain of
	// the rows above with an impulse reward of 0.1 on every up transition,
	// order 3 under the automatic policy — the scalar compact-CSR kernel,
	// which impulse models always take, unblocked, inline on one worker.
	b.Run("N2001/impulse", func(b *testing.B) {
		ib := sparse.NewBuilder(2_001, 2_001)
		for i := 0; i+1 < 2_001; i++ {
			if err := ib.Add(i, i+1, 0.1); err != nil {
				b.Fatal(err)
			}
		}
		impModel, err := largeTridiagModel(b, 2_001).WithImpulses(ib.Build())
		if err != nil {
			b.Fatal(err)
		}
		impPrep, err := Prepare(impModel)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := impPrep.AccumulatedReward(tt, order, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Non-tridiagonal shapes at ≈65k states, one worker, on the compact
	// CSR the automatic policy resolves every one of them to (see
	// TestSolveBlockTridiagonalAutoCSR32). composed-bd4 and composed-bd2
	// compose a birth–death chain (16,383 and 32,767 states) with a dense
	// 4- and 2-state factor (materialized: block-tridiagonal, level size 4
	// and 2); qbd-b12 is a dense-block QBD of 5,461 levels × 12 phases;
	// penta is a pentadiagonal chain of 65,521 states. The
	// block-tridiagonal rows keep the cost of the retired QBD storage
	// measured (see BENCHMARKS.md "QBD retired"). The /csr rows solve
	// order 3; penta also solves order 2 and order 12 (the order of every
	// bounds request), the interleaved CSR kernel's other widths. t is
	// set per shape so qt = 56, as in the rows above.
	const shapeQT = 56.0
	for _, shape := range []struct {
		name  string
		build func(b *testing.B) *Model
	}{
		{"composed-bd4", func(b *testing.B) *Model { return composedDenseModel(b, 16_383, 4) }},
		{"composed-bd2", func(b *testing.B) *Model { return composedDenseModel(b, 32_767, 2) }},
		{"qbd-b12", func(b *testing.B) *Model { return denseQBDModel(b, 5_461, 12) }},
		{"penta", func(b *testing.B) *Model { return pentadiagonalModel(b, 65_521) }},
	} {
		type probed struct {
			prep *Prepared
			t    float64
		}
		prepared := lazyPrepared(shape.build)
		setup := lazy(func(b *testing.B) probed {
			prep := prepared(b)
			probe, err := prep.AccumulatedReward(1, order, nil)
			if err != nil {
				b.Fatal(err)
			}
			return probed{prep, shapeQT / probe.Stats.Q}
		})
		rows := map[string]int{"csr": order}
		if shape.name == "penta" {
			rows["order2"], rows["order12"] = 2, 12
		}
		for _, row := range []string{"csr", "order2", "order12"} {
			rowOrder, ok := rows[row]
			if !ok {
				continue
			}
			b.Run(fmt.Sprintf("shape-%s/%s", shape.name, row), func(b *testing.B) {
				sh := setup(b)
				prep, shapeT := sh.prep, sh.t
				opts := &Options{SweepWorkers: 1, MatrixFormat: "csr"}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prep.AccumulatedReward(shapeT, rowOrder, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// compose-3x41 is the composed-kron serving shape: three 41-state
	// ON–OFF factors (68,921 product states, matrix-free), solved by three
	// factor sweeps and the scalar moment fold at t = 0.05;
	// compose-3x41-states also builds the per-state vectors
	// (StateMoments), the fold over every product state. Both report the
	// factor sweeps' matrix-vector products as matvecs/op.
	composed := lazyPrepared(func(b *testing.B) *Model { return compose3x41(b) })
	for _, states := range []bool{false, true} {
		name := "compose-3x41"
		if states {
			name += "-states"
		}
		b.Run(name, func(b *testing.B) {
			prep := composed(b)
			var matvecs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prep.AccumulatedReward(0.05, order, nil)
				if err != nil {
					b.Fatal(err)
				}
				if states {
					res.StateMoments()
				}
				matvecs += res.Stats.MatVecs
			}
			b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
		})
	}
}

// lazy returns get, which builds its value with build on the first call
// and returns that value on every call, so a group of sub-benchmarks
// builds a shared model only once one of its rows runs.
func lazy[T any](build func(b *testing.B) T) (get func(b *testing.B) T) {
	var v T
	built := false
	return func(b *testing.B) T {
		if !built {
			v, built = build(b), true
		}
		return v
	}
}

// lazyPrepared is lazy for the Prepared of the model build returns.
func lazyPrepared(build func(b *testing.B) *Model) func(b *testing.B) *Prepared {
	return lazy(func(b *testing.B) *Prepared {
		p, err := Prepare(build(b))
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}
