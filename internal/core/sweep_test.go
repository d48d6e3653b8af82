package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"somrm/internal/ctmc"
	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// largeTridiagModel builds the paper's large-example shape: a tridiagonal
// birth-death chain with constant rates (so the uniformization rate, and
// with it qt and G, stay independent of n), drifts of mixed sign (the
// shift transformation is active) and positive variances.
func largeTridiagModel(tb testing.TB, n int) *Model {
	return rateModel(tb, n, func(i int, add func(int, float64)) {
		add(i+1, 3)
		add(i-1, 4)
	})
}

// TestSolveSmallModelProductionSweep pins the production sweep below the
// parallel threshold under default Options: the paper's Table 1 ON–OFF
// multiplexer (N = 32 sources, 33 states), a bidiagonal pure-birth chain
// and the 2,001-state midsize birth–death chain run the inline 1-worker
// fused kernel on the band window; a pentadiagonal chain and a
// birth–death chain composed with a dense 4-state factor, outside the
// window, stream compact CSR. Each storage has a vector body, so
// every solve reports the host's SIMD dispatch and stays bitwise equal to
// the serial reference oracle (SweepWorkers < 0), which streams compact
// CSR whatever the format asked. The non-band shapes run unblocked (their state is
// cache-resident); band models run unblocked below two 128-row L1
// blocks and temporally blocked at depth 16 from there. The band window
// serves every moment order, so the order-12 Table 1 solve — the shape
// of every bounds request — reports the same SIMD dispatch.
func TestSolveSmallModelProductionSweep(t *testing.T) {
	wantKernel := sparse.KernelScalar
	if v := os.Getenv("SOMRM_NOSIMD"); sparse.SIMDAvailable() && (v == "" || v == "0") {
		wantKernel = sparse.KernelAVX2
	}
	times := []float64{0.5, 2}
	for _, c := range []struct {
		name     string
		m        *Model
		order    int
		wantBand bool
		wantT    int
	}{
		{"table1", benchModel(t, 33, false), 3, true, 1},
		{"table1-order12", benchModel(t, 33, false), 12, true, 1},
		{"bidiagonal", pureBirthModel(t, 64), 3, true, 1},
		{"midsize", largeTridiagModel(t, 2_001), 3, true, 16},
		{"pentadiagonal", pentadiagonalModel(t, 64), 3, false, 1},
		{"composed-bd-x4", composedDenseModel(t, 50, 4), 3, false, 1},
	} {
		order := c.order
		def, err := c.m.AccumulatedRewardAt(times, order, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := def[0].Stats
		t.Logf("%s: %d states, format %s, kernel %s", c.name, c.m.N(), st.MatrixFormat, st.SweepKernel)
		if (st.MatrixFormat == string(sparse.FormatBand)) != c.wantBand || st.TemporalBlock != c.wantT || st.SweepKernel != wantKernel {
			t.Fatalf("%s: format %q, temporal block %d, kernel %q; want band=%v, %d, %q",
				c.name, st.MatrixFormat, st.TemporalBlock, st.SweepKernel, c.wantBand, c.wantT, wantKernel)
		}
		ref, err := c.m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: -1})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if got := ref[0].Stats.MatrixFormat; got != string(sparse.FormatCSR32) {
			t.Fatalf("%s: reference oracle streamed %q, want csr32", c.name, got)
		}
		sameResults(t, c.name, def, ref)
		// csr64 and qbd named the deleted native-index CSR and
		// block-tridiagonal storage: neither is selectable.
		for _, f := range []string{"csr64", "qbd"} {
			if _, err := c.m.AccumulatedRewardAt(times, order, &Options{MatrixFormat: f}); !errors.Is(err, ErrBadArgument) {
				t.Fatalf("%s: MatrixFormat %s: err = %v, want ErrBadArgument", c.name, f, err)
			}
		}
	}
}

// TestSolveBlockTridiagonalAutoCSR32 pins the storage of the
// non-tridiagonal shapes BenchmarkSweep's shape-* rows time: a
// dense-block QBD, a birth–death chain composed with a dense 2- and
// 4-state factor, and a pentadiagonal chain all resolve to compact CSR
// under the automatic policy, and match the serial reference sweep bit
// for bit at one and two workers, unblocked and with temporal blocking
// forced over 8-row tiles.
func TestSolveBlockTridiagonalAutoCSR32(t *testing.T) {
	times := []float64{0, 0.5, 2}
	const order = 3
	for _, c := range []struct {
		name string
		m    *Model
	}{
		{"dense-qbd-8x4", denseQBDModel(t, 8, 4)},
		{"bd-x2", composedDenseModel(t, 30, 2)},
		{"bd-x4", composedDenseModel(t, 15, 4)},
		{"penta", pentadiagonalModel(t, 61)},
	} {
		ref, err := c.m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: -1})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		for _, workers := range []int{1, 2} {
			for _, tblock := range []int{1, 4} {
				opts := &Options{SweepWorkers: workers, TemporalBlock: tblock, SweepTile: 8}
				label := fmt.Sprintf("%s workers %d tblock %d", c.name, workers, tblock)
				got, err := c.m.AccumulatedRewardAt(times, order, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				st := got[1].Stats
				if st.MatrixFormat != string(sparse.FormatCSR32) || st.TemporalBlock != tblock {
					t.Fatalf("%s: format %q at depth %d, want csr32 at %d", label, st.MatrixFormat, st.TemporalBlock, tblock)
				}
				sameResults(t, label, got, ref)
			}
		}
	}
}

// TestSweepFusedMatchesReferenceLarge runs the paper-scale shape
// (N = 100,001 tridiagonal states, order 3) through the fused
// persistent-worker kernel — the model is far above the parallel
// threshold, so the automatic policy picks it — and demands bitwise
// agreement with the forced serial reference sweep, across a multi-point
// time grid including t = 0.
func TestSweepFusedMatchesReferenceLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large model")
	}
	m := largeTridiagModel(t, 100_001)
	times := []float64{0, 0.5, 2}
	const order = 3

	ref, err := m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ref[1].Stats.MatrixFormat; got != string(sparse.FormatCSR32) {
		t.Fatalf("reference sweep reported format %q, want csr32", got)
	}
	cases := []struct {
		workers    int
		format     string
		wantFormat string // resolved Stats.MatrixFormat; "" = don't check
	}{
		{0, "", "band"}, // tridiagonal: auto resolves to the band kernel
		{1, "", "band"},
		{3, "", "band"},
		{1, "band", "band"},
		{1, "csr", "csr32"},
		{3, "csr", "csr32"},
	}
	for _, c := range cases {
		got, err := m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: c.workers, MatrixFormat: c.format})
		if err != nil {
			t.Fatalf("workers %d format %q: %v", c.workers, c.format, err)
		}
		if c.wantFormat != "" && got[1].Stats.MatrixFormat != c.wantFormat {
			t.Fatalf("workers %d format %q: Stats.MatrixFormat = %q, want %q",
				c.workers, c.format, got[1].Stats.MatrixFormat, c.wantFormat)
		}
		for idx := range times {
			if got[idx].Stats.MatVecs != ref[idx].Stats.MatVecs {
				t.Fatalf("workers %d format %q t=%g: matvecs %d != %d", c.workers, c.format, times[idx], got[idx].Stats.MatVecs, ref[idx].Stats.MatVecs)
			}
		}
		sameResults(t, fmt.Sprintf("workers %d format %q", c.workers, c.format), got, ref)
	}
}

// TestPreparedPoolBitwise proves the pooled workspace cannot leak state
// between solves: repeated solves through one Prepared — different time
// grids and formats interleaved, so arenas are reused at different
// carvings — must stay bitwise identical to the fresh-model path.
func TestPreparedPoolBitwise(t *testing.T) {
	m := largeTridiagModel(t, 4_000)
	prep, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	const order = 3
	grids := [][]float64{{0.7}, {0, 0.5, 2}, {3, 0.1}}
	formats := []string{"auto", "band", "csr"}
	for rep := 0; rep < 3; rep++ {
		for gi, times := range grids {
			format := formats[(rep+gi)%len(formats)]
			opts := &Options{SweepWorkers: 2, MatrixFormat: format}
			want, err := m.AccumulatedRewardAt(times, order, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prep.AccumulatedRewardAt(times, order, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("rep %d grid %d format %s", rep, gi, format), got, want)
		}
	}
}

// TestSweepCancellationHammer races the persistent worker team against
// concurrent cancellation: many solves above the parallel threshold,
// each cancelled at a random point mid-sweep. Run under -race in CI it
// checks the team's barrier discipline; every call must either finish
// with valid moments or return the context's error, and no goroutines
// may linger.
func TestSweepCancellationHammer(t *testing.T) {
	m := largeTridiagModel(t, 20_000)
	// Half the goroutines solve through a shared Prepared: under -race this
	// additionally checks the pooled workspaces and the shared derived
	// matrix representations (band, compact indexes) for races.
	prep, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	formats := []string{"auto", "band", "csr"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for rep := 0; rep < 4; rep++ {
				opts := &Options{SweepWorkers: 2, MatrixFormat: formats[rng.Intn(len(formats))]}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3000))*time.Microsecond)
				var res []*Result
				var err error
				if g%2 == 0 {
					res, err = prep.AccumulatedRewardAtContext(ctx, []float64{40}, 3, opts)
				} else {
					res, err = m.AccumulatedRewardAtContext(ctx, []float64{40}, 3, opts)
				}
				cancel()
				if err != nil {
					if ctx.Err() == nil {
						t.Errorf("goroutine %d: non-cancellation error: %v", g, err)
					}
					continue
				}
				for j, v := range res[0].Moments {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("goroutine %d: bad moment %d: %g", g, j, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSweepStats pins the documented Stats semantics: MatVecs and SweepNS
// are whole-sweep figures copied into every Result of a multi-time solve,
// MatVecs matches the recursion's product count, and the sweep consumed
// measurable wall time.
func TestSweepStats(t *testing.T) {
	m := largeTridiagModel(t, 512)
	times := []float64{0.5, 1, 4}
	const order = 3
	res, err := m.AccumulatedRewardAt(times, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	gMax := 0
	for _, r := range res {
		if r.Stats.G > gMax {
			gMax = r.Stats.G
		}
	}
	want := int64(gMax) * int64(order+1) // no impulses in this model
	for idx, r := range res {
		if r.Stats.MatVecs != want {
			t.Errorf("t=%g: MatVecs = %d, want whole-sweep %d", times[idx], r.Stats.MatVecs, want)
		}
		if r.Stats.MatVecs != res[0].Stats.MatVecs || r.Stats.SweepNS != res[0].Stats.SweepNS {
			t.Errorf("t=%g: per-result sweep stats differ within one solve", times[idx])
		}
		if r.Stats.SweepNS <= 0 {
			t.Errorf("t=%g: SweepNS = %d, want > 0", times[idx], r.Stats.SweepNS)
		}
	}

	// Impulse models count the triangular impulse products too.
	mi := impulseTestModel(t)
	ri, err := mi.AccumulatedReward(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := ri.Stats.G
	wantImp := int64(g) * int64(3+2*3/2)
	if ri.Stats.MatVecs != wantImp {
		t.Errorf("impulse model: MatVecs = %d, want %d", ri.Stats.MatVecs, wantImp)
	}
}

// impulseTestModel is a small two-state chain with impulse rewards on
// both transitions.
func impulseTestModel(tb testing.TB) *Model {
	tb.Helper()
	gen, err := ctmc.NewGeneratorFromRates(2, func(i, j int) float64 {
		if i == 0 && j == 1 {
			return 2
		}
		return 3
	})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(gen, []float64{1, -0.5}, []float64{0.2, 0.1}, []float64{1, 0})
	if err != nil {
		tb.Fatal(err)
	}
	ib := sparse.NewBuilder(2, 2)
	if err := ib.Add(0, 1, 0.4); err != nil {
		tb.Fatal(err)
	}
	if err := ib.Add(1, 0, 0.7); err != nil {
		tb.Fatal(err)
	}
	mi, err := m.WithImpulses(ib.Build())
	if err != nil {
		tb.Fatal(err)
	}
	return mi
}

// TestPowTable pins the power table against math.Pow bit for bit over
// moderate, extreme, and special-case bases — the contract that keeps
// unshift's results identical to the old per-entry Pow formula.
func TestPowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bases := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, -2, 0.5, -0.5,
		1e-80, -1e-80, 1e80, -1e80, 1e300, 1e-300, // fallback territory
		math.Pi, -math.E, 1e-8, 123456.789,
	}
	for i := 0; i < 500; i++ {
		bases = append(bases, (rng.Float64()*2-1)*math.Pow(10, float64(rng.Intn(13)-6)))
	}
	for _, c := range bases {
		for _, n := range []int{0, 1, 2, 3, 5, 8, 12} {
			p := powTable(c, n)
			for m := 0; m <= n; m++ {
				want := math.Pow(c, float64(m))
				if math.Float64bits(p[m]) != math.Float64bits(want) {
					t.Fatalf("powTable(%g, %d)[%d] = %x, math.Pow = %x",
						c, n, m, math.Float64bits(p[m]), math.Float64bits(want))
				}
			}
		}
	}
}

// unshiftOldFormula is the pre-power-table implementation of unshift,
// kept verbatim as the oracle for the bitwise pin below.
func unshiftOldFormula(vm [][]float64, shift, t float64, order int) [][]float64 {
	if shift == 0 {
		return vm
	}
	n := len(vm[0])
	c := shift * t
	out := make([][]float64, order+1)
	binom := make([]float64, order+1)
	for j := 0; j <= order; j++ {
		binom[j] = 1
		for l := j - 1; l > 0; l-- {
			binom[l] += binom[l-1]
		}
		out[j] = make([]float64, n)
		for l := 0; l <= j; l++ {
			coef := binom[l] * math.Pow(c, float64(j-l))
			if coef == 0 {
				continue
			}
			src := vm[l]
			dst := out[j]
			for i := 0; i < n; i++ {
				dst[i] += coef * src[i]
			}
		}
	}
	return out
}

// TestUnshiftMatchesOldFormula demands bitwise identity between the
// table-driven unshift and the old per-entry math.Pow formula, across
// random moments and shift magnitudes from subnormal-producing to
// overflowing.
func TestUnshiftMatchesOldFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shifts := []float64{0, -0.5, -3, -1e-90, -1e90, -1e-300}
	for i := 0; i < 40; i++ {
		shifts = append(shifts, -rng.Float64()*math.Pow(10, float64(rng.Intn(9)-4)))
	}
	for _, shift := range shifts {
		for _, order := range []int{0, 1, 3, 6} {
			n := 1 + rng.Intn(8)
			vm := make([][]float64, order+1)
			for j := range vm {
				vm[j] = make([]float64, n)
				for i := range vm[j] {
					vm[j][i] = rng.NormFloat64() * 10
				}
			}
			tt := 0.1 + rng.Float64()*5
			got := unshift(vm, shift, tt, order)
			want := unshiftOldFormula(vm, shift, tt, order)
			for j := range want {
				for i := range want[j] {
					if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
						t.Fatalf("shift=%g t=%g order=%d: out[%d][%d] = %x, old formula %x",
							shift, tt, order, j, i, math.Float64bits(got[j][i]), math.Float64bits(want[j][i]))
					}
				}
			}
		}
	}
}

// truncationPointNoMemo is the pre-memoization search, kept verbatim: the
// oracle proving the memoized version returns an unchanged G across the
// representative parameter grid.
func truncationPointNoMemo(order int, d, qt, eps float64, impulses bool, maxG int) (int, float64, error) {
	logEps := math.Log(eps)
	logBoundAt := func(g, j int) float64 {
		var logFactor float64
		if impulses {
			logFactor = float64(j) * (math.Log(4*d) + math.Log(qt))
		} else {
			lg, _ := math.Lgamma(float64(j) + 1)
			logFactor = math.Ln2 + float64(j)*math.Log(d) + lg + float64(j)*math.Log(qt)
		}
		return logFactor + poisson.LogTailProb(g-j, qt)
	}
	logBound := func(g int) float64 {
		worst := math.Inf(-1)
		for j := 0; j <= order; j++ {
			if b := logBoundAt(g, j); b > worst {
				worst = b
			}
		}
		return worst
	}
	minG := 0
	if impulses {
		minG = 2 * order
	}
	if logBound(minG) < logEps {
		return minG, math.Exp(logBound(minG)), nil
	}
	hi := minG + 1
	step := 1 + int(math.Sqrt(qt))
	for logBound(hi) >= logEps {
		hi += step
		step *= 2
		if hi > maxG {
			return 0, 0, ErrBadArgument
		}
	}
	lo := minG
	for lo < hi {
		mid := (lo + hi) / 2
		if logBound(mid) < logEps {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, math.Exp(logBound(hi)), nil
}

// TestTruncationPointMemoUnchanged checks G (and the reported bound) of
// the table-backed search against a direct, untabulated one over a
// representative (qt, order, eps, impulses) grid, including the paper's
// qt = 40,000 large example.
func TestTruncationPointMemoUnchanged(t *testing.T) {
	for _, qt := range []float64{0.01, 0.5, 5, 50, 500, 5000, 40_000} {
		for order := 0; order <= 5; order++ {
			for _, eps := range []float64{1e-6, 1e-9, 1e-12} {
				for _, impulses := range []bool{false, true} {
					for _, d := range []float64{0.25, 1.5} {
						var tab poisson.Table
						poissonTable(&tab, qt, order)
						g, bound, err := truncationPoint(&tab, order, d, qt, eps, impulses, defaultMaxG)
						if err != nil {
							t.Fatalf("qt=%g order=%d eps=%g imp=%v: %v", qt, order, eps, impulses, err)
						}
						gRef, boundRef, err := truncationPointNoMemo(order, d, qt, eps, impulses, defaultMaxG)
						if err != nil {
							t.Fatalf("reference qt=%g order=%d eps=%g imp=%v: %v", qt, order, eps, impulses, err)
						}
						if g != gRef || math.Float64bits(bound) != math.Float64bits(boundRef) {
							t.Errorf("qt=%g order=%d eps=%g imp=%v d=%g: (G=%d, bound=%g) != unmemoized (G=%d, bound=%g)",
								qt, order, eps, impulses, d, g, bound, gRef, boundRef)
						}
					}
				}
			}
		}
	}
}
