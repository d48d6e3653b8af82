package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"somrm/internal/poisson"
	"somrm/internal/sparse"
)

// ladderTimes put q·t between 210 and 700 on the q = 7 fixtures, so the
// left truncation points (about 90 to 490) sit far enough apart for
// several rungs.
var ladderTimes = []float64{30, 45, 60, 75, 90, 100}

// ladderOrders are the moment orders the ladder gates cover.
var ladderOrders = []int{0, 1, 2, 3, 4, 5, 12}

// ladderFixtures are the 40-state tridiagonal chain of the sweep tests
// (q = 7, negative drifts, so the shift and unshift run) and the same
// chain with an impulse reward on every up transition, whose scalar
// impulse sweeps the gate runs at orders 1 and 3 only, to stay fast
// under the race detector.
func ladderFixtures(tb testing.TB) map[string]*Model {
	tb.Helper()
	const n = 40
	plain := largeTridiagModel(tb, n)
	ib := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		if err := ib.Add(i, i+1, 0.1); err != nil {
			tb.Fatal(err)
		}
	}
	imp, err := largeTridiagModel(tb, n).WithImpulses(ib.Build())
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*Model{"plain": plain, "impulse": imp}
}

// ladderConfigs are the sweep shapes the ladder gate runs: both fused
// storage formats on one and two workers, blocked and unblocked, with a
// tile narrow enough for several blocks per group, the serial reference,
// and the scalar kernels under SOMRM_NOSIMD.
var ladderConfigs = []struct {
	name   string
	opts   Options
	nosimd bool
}{
	{"band-1", Options{SweepWorkers: 1, MatrixFormat: "band", TemporalBlock: 1, SweepTile: 8}, false},
	{"band-1-blocked", Options{SweepWorkers: 1, MatrixFormat: "band", TemporalBlock: 16, SweepTile: 8}, false},
	{"band-2", Options{SweepWorkers: 2, MatrixFormat: "band", TemporalBlock: 1}, false},
	{"band-2-blocked", Options{SweepWorkers: 2, MatrixFormat: "band", TemporalBlock: 4, SweepTile: 8}, false},
	{"csr-1", Options{SweepWorkers: 1, MatrixFormat: "csr", TemporalBlock: 1, SweepTile: 8}, false},
	{"csr-2-blocked", Options{SweepWorkers: 2, MatrixFormat: "csr", TemporalBlock: 4, SweepTile: 8}, false},
	{"reference", Options{SweepWorkers: -1}, false},
	{"band-1-blocked-nosimd", Options{SweepWorkers: 1, MatrixFormat: "band", TemporalBlock: 16, SweepTile: 8}, true},
	{"csr-1-blocked-nosimd", Options{SweepWorkers: 1, MatrixFormat: "csr", TemporalBlock: 16, SweepTile: 8}, true},
}

// freshSolve solves t on a fresh Prepared: a model's first solve, which
// never touches the ladder.
func freshSolve(tb testing.TB, m *Model, t float64, order int, opts *Options) *Result {
	tb.Helper()
	p, err := Prepare(m)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := p.AccumulatedReward(t, order, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stats.StartIteration != 0 || res.Stats.Ladder != "" || res.Stats.LadderCaptured {
		tb.Fatalf("first solve used the ladder: %+v", res.Stats)
	}
	return res
}

// sameBits fails unless got carries want's moments, vectors and bound bit
// for bit.
func sameBits(tb testing.TB, tag string, got, want *Result) {
	tb.Helper()
	if got.Stats.G != want.Stats.G || math.Float64bits(got.Stats.ErrorBound) != math.Float64bits(want.Stats.ErrorBound) {
		tb.Fatalf("%s: G %d bound %g, want G %d bound %g", tag, got.Stats.G, got.Stats.ErrorBound, want.Stats.G, want.Stats.ErrorBound)
	}
	for j := range want.Moments {
		if math.Float64bits(got.Moments[j]) != math.Float64bits(want.Moments[j]) {
			tb.Fatalf("%s: moment %d = %v, want %v", tag, j, got.Moments[j], want.Moments[j])
		}
		for i, w := range want.VectorMoments[j] {
			if math.Float64bits(got.VectorMoments[j][i]) != math.Float64bits(w) {
				tb.Fatalf("%s: vm[%d][%d] = %v, want %v", tag, j, i, got.VectorMoments[j][i], w)
			}
		}
	}
}

// TestLadderBitwise is the ladder's bitwise gate: solves on a Prepared
// whose ladder was filled by earlier solves equal fresh-Prepared solves
// bit for bit — over both fused formats, one and two workers, blocked and
// unblocked runs, the serial reference, the scalar kernels, orders 0–5
// and 12, batches against looped singles, plain and impulse models, and a
// ladder filled at order 12 serving lower orders. The second pass over
// the times solves from the snapshots the first one captured. Every combination must
// also actually start some solve from a snapshot, and a solve's MatVecs
// must count only the iterations it ran.
func TestLadderBitwise(t *testing.T) {
	for name, m := range ladderFixtures(t) {
		for _, c := range ladderConfigs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				if c.nosimd {
					t.Setenv("SOMRM_NOSIMD", "1")
				}
				opts := c.opts
				perIter := func(order int) int64 {
					if m.HasImpulses() {
						return int64(order+1) + int64(order*(order+1)/2)
					}
					return int64(order + 1)
				}
				orders := ladderOrders
				if m.HasImpulses() {
					orders = []int{1, 3}
				}
				for _, order := range orders {
					fresh := make([]*Result, len(ladderTimes))
					for i, tt := range ladderTimes {
						fresh[i] = freshSolve(t, m, tt, order, &opts)
					}
					p, err := Prepare(m)
					if err != nil {
						t.Fatal(err)
					}
					hits := 0
					for pass := 0; pass < 2; pass++ {
						for i, tt := range ladderTimes {
							res, err := p.AccumulatedReward(tt, order, &opts)
							if err != nil {
								t.Fatal(err)
							}
							tag := fmt.Sprintf("order %d t=%g pass %d", order, tt, pass)
							sameBits(t, tag, res, fresh[i])
							st := res.Stats
							if want := perIter(order) * int64(st.G-st.StartIteration); st.MatVecs != want {
								t.Fatalf("%s: MatVecs %d, want %d from iteration %d", tag, st.MatVecs, want, st.StartIteration)
							}
							if st.StartIteration > 0 {
								hits++
							}
						}
					}
					if hits == 0 {
						t.Fatalf("order %d: no solve started from the ladder (%d rungs)", order, len(p.lad.rungs))
					}
					batch, err := p.AccumulatedRewardAt(ladderTimes, order, &opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range batch {
						sameBits(t, fmt.Sprintf("order %d batch point %d", order, i), batch[i], fresh[i])
					}
				}

				// A ladder filled at order 12 serves every lower order.
				if m.HasImpulses() {
					return
				}
				p, err := Prepare(m)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					for _, tt := range ladderTimes {
						if _, err := p.AccumulatedReward(tt, 12, &opts); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, order := range []int{0, 3, 5} {
					hits := 0
					for _, tt := range ladderTimes {
						res, err := p.AccumulatedReward(tt, order, &opts)
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("order %d from order-12 rungs t=%g", order, tt), res, freshSolve(t, m, tt, order, &opts))
						if res.Stats.StartIteration > 0 {
							hits++
						}
					}
					if hits == 0 {
						t.Fatalf("order %d: no solve started from an order-12 rung", order)
					}
				}
			})
		}
	}
}

// TestLadderBitwiseConcurrent is TestLadderBitwise's race gate: goroutines
// solving distinct times concurrently on one Prepared, while its ladder
// fills (and, on the impulse fixture, while its impulse matrices align to
// the generator's pattern), get the fresh-Prepared bits.
func TestLadderBitwiseConcurrent(t *testing.T) {
	for _, prefix := range []string{"", "impulse/"} {
		m := ladderFixtures(t)["plain"]
		if prefix != "" {
			m = ladderFixtures(t)["impulse"]
		}
		for _, c := range ladderConfigs[:4] {
			t.Run(prefix+c.name, func(t *testing.T) {
				opts := c.opts
				const order = 3
				fresh := make([]*Result, len(ladderTimes))
				for i, tt := range ladderTimes {
					fresh[i] = freshSolve(t, m, tt, order, &opts)
				}
				p, err := Prepare(m)
				if err != nil {
					t.Fatal(err)
				}
				const solvers = 4
				errs := make(chan error, solvers)
				var wg sync.WaitGroup
				for g := 0; g < solvers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for pass := 0; pass < 3; pass++ {
							for k := range ladderTimes {
								i := (k + g) % len(ladderTimes)
								res, err := p.AccumulatedReward(ladderTimes[i], order, &opts)
								if err != nil {
									errs <- err
									return
								}
								for j := range res.Moments {
									if math.Float64bits(res.Moments[j]) != math.Float64bits(fresh[i].Moments[j]) {
										errs <- fmt.Errorf("solver %d t=%g moment %d = %v, want %v", g, ladderTimes[i], j, res.Moments[j], fresh[i].Moments[j])
										return
									}
								}
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLadderMemoryRule pins the ladder's memory rule: a model's first
// solve captures nothing, rungs stay at least ladderGap apart and away
// from 0, and the rungs never hold more than ladderWords(N) words — four
// order-3 snapshots, one order-12 snapshot, none at order 16.
func TestLadderMemoryRule(t *testing.T) {
	m := ladderFixtures(t)["plain"]
	n := m.N()
	for _, c := range []struct{ order, maxRungs int }{{3, 4}, {12, 1}, {16, 0}} {
		p, err := Prepare(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AccumulatedReward(ladderTimes[len(ladderTimes)-1], c.order, nil); err != nil {
			t.Fatal(err)
		}
		if len(p.lad.rungs) != 0 {
			t.Fatalf("order %d: first solve captured %d rungs", c.order, len(p.lad.rungs))
		}
		for k := 0; k < 60; k++ {
			tt := 30 + 80*float64(k%20)/20 + float64(k)/60
			if _, err := p.AccumulatedReward(tt, c.order, nil); err != nil {
				t.Fatal(err)
			}
		}
		words, prev := 0, 0
		for _, r := range p.lad.rungs {
			if r.k-prev < ladderGap {
				t.Fatalf("order %d: rung %d within %d of %d", c.order, r.k, ladderGap, prev)
			}
			prev = r.k
			words += len(r.state) * n
		}
		if words != p.lad.words || words > ladderWords(n) || len(p.lad.rungs) > c.maxRungs {
			t.Fatalf("order %d: %d rungs, %d words (recorded %d), budget %d", c.order, len(p.lad.rungs), words, p.lad.words, ladderWords(n))
		}
		if c.maxRungs > 0 && len(p.lad.rungs) == 0 {
			t.Fatalf("order %d: warm solves captured nothing", c.order)
		}
	}
}

// TestLadderBypassedByResume: a resume token continues its own sweep and
// never starts from, or captures into, the ladder.
func TestLadderBypassedByResume(t *testing.T) {
	m := ladderFixtures(t)["plain"]
	p, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, tt := range ladderTimes {
			if _, err := p.AccumulatedReward(tt, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	tt := ladderTimes[len(ladderTimes)-1]
	want := freshSolve(t, m, tt, 3, nil)
	ctx := &pollCountdownCtx{Context: context.Background(), polls: 3}
	_, err = p.AccumulatedRewardContext(ctx, tt, 3, &Options{Checkpoint: true, CancelStride: 1})
	var ir *Interrupted
	if !errors.As(err, &ir) {
		t.Fatalf("want *Interrupted, got %v", err)
	}
	rungs := len(p.lad.rungs)
	got, err := p.AccumulatedReward(tt, 3, &Options{Resume: ir.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resumed", got, want)
	if st := got.Stats; st.StartIteration != 0 || st.Ladder != "" || st.LadderCaptured || st.MatVecs != want.Stats.MatVecs {
		t.Fatalf("resume used the ladder: %+v", st)
	}
	if len(p.lad.rungs) != rungs {
		t.Fatalf("resume changed the ladder: %d rungs, had %d", len(p.lad.rungs), rungs)
	}
}

// TestCheckpointV1Rejected: a token in the SOMRMCK1 layout, recorded
// before the plan windows gained the left truncation point, decodes to a
// typed ErrCheckpoint instead of resuming an accumulation the current
// plans would not reproduce.
func TestCheckpointV1Rejected(t *testing.T) {
	blob, err := os.ReadFile("testdata/checkpoint_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "SOMRMCK1") {
		t.Fatalf("fixture is not a SOMRMCK1 token: %q", blob[:8])
	}
	cp, err := DecodeCheckpoint(blob)
	if !errors.Is(err, ErrCheckpoint) || cp != nil {
		t.Fatalf("SOMRMCK1 token: got %v, %v; want ErrCheckpoint", cp, err)
	}
}

// windowMoments solves the times with every plan accumulating from its
// non-zero pmf window's first iteration, as solves did before the left
// truncation point: the reference the left term is measured against. It
// also returns each point's left truncation point and head term.
func windowMoments(tb testing.TB, m *Model, times []float64, order int) (moments [][]float64, ls []int, left []float64) {
	tb.Helper()
	q := m.gen.MaxExitRate()
	u, err := m.uniformize(q)
	if err != nil {
		tb.Fatal(err)
	}
	n := m.N()
	sw, err := sparse.NewSweep(u.qPrime, u.rPrime, u.sHalf, nil, order, 1)
	if err != nil {
		tb.Fatal(err)
	}
	plans := make([]sparse.SweepPlan, len(times))
	ls, left = make([]int, len(times)), make([]float64, len(times))
	gMax := 0
	for idx, tt := range times {
		var tab poisson.Table
		poissonTable(&tab, q*tt, order)
		g, right, err := truncationPoint(&tab, order, u.d, q*tt, DefaultEpsilon, false, defaultMaxG)
		if err != nil {
			tb.Fatal(err)
		}
		w, first, last := tab.Window(g)
		ls[idx], left[idx] = leftPoint(&tab, order, u.d, q*tt, DefaultEpsilon, right, false, g)
		acc := make([][]float64, order+1)
		for j := range acc {
			acc[j] = make([]float64, n)
		}
		if first == 0 {
			for i := range acc[0] {
				acc[0][i] = w[0]
			}
		}
		plans[idx] = sparse.SweepPlan{First: first, Last: last, Weight: w, Acc: make([]float64, sw.AccWords())}
		sw.PackAcc(plans[idx].Acc, acc)
		gMax = max(gMax, g)
	}
	cur := make([][]float64, order+1)
	for j := range cur {
		cur[j] = make([]float64, n)
	}
	for i := range cur[0] {
		cur[0][i] = 1
	}
	if _, err := sw.RunFrom(context.Background(), 1, gMax, cur, plans, cancelCheckStride); err != nil {
		tb.Fatal(err)
	}
	for idx, tt := range times {
		vm := make([][]float64, order+1)
		for j := range vm {
			vm[j] = make([]float64, n)
		}
		sw.UnpackAcc(vm, plans[idx].Acc)
		scale := 1.0
		for j := range vm {
			if j > 0 {
				scale *= float64(j) * u.d
			}
			for i, a := range vm[j] {
				vm[j][i] = scale * a
			}
		}
		res := &Result{Order: order, VectorMoments: unshift(vm, u.shift, tt, order)}
		res.finish(m.initial)
		moments = append(moments, res.Moments)
	}
	return moments, ls, left
}

// TestLeftTruncationBound checks the left truncation point against its
// bound on Table 1 (N = 32, q·t up to 128, orders 3 and 12), the
// 2,001-state model, and a scaled Table 2 (N = 20,000, q·t = 4,000): the
// solve's ErrorBound stays within ε at every point, and each moment, m₀
// included, moves from the solve that accumulates the whole non-zero pmf
// window by at most the head term the bound charges for the dropped head
// (a point with no left truncation moves not at all).
func TestLeftTruncationBound(t *testing.T) {
	grid := make([]float64, 20)
	for i := range grid {
		grid[i] = float64(i+1) / 20
	}
	cases := []struct {
		name  string
		m     *Model
		order int
		times []float64
	}{
		{"table1/order3", onOffModel(t, 32, 4, 3, 1, 10), 3, grid},
		{"table1/order12", onOffModel(t, 32, 4, 3, 1, 10), 12, grid},
		{"N2001", onOffModel(t, 2000, 4, 3, 1, 10), 3, []float64{0.01, 0.02, 0.05, 0.1}},
		{"table2-scaled", onOffModel(t, 20_000, 4, 3, 1, 10), 3, []float64{0.01, 0.02, 0.03, 0.04, 0.05}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.m.AccumulatedRewardAt(c.times, c.order, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, ls, left := windowMoments(t, c.m, c.times, c.order)
			truncated := 0
			for idx, res := range got {
				if res.Stats.ErrorBound > DefaultEpsilon {
					t.Fatalf("t=%g: ErrorBound %g above ε", res.T, res.Stats.ErrorBound)
				}
				if ls[idx] > 0 {
					truncated++
				}
				for j, w := range want[idx] {
					if d := math.Abs(res.Moments[j] - w); d > left[idx] {
						t.Fatalf("t=%g (L=%d): moment %d moved %g from the window solve, head term %g", res.T, ls[idx], j, d, left[idx])
					}
				}
			}
			t.Logf("%d of %d points left-truncated; L = %v", truncated, len(c.times), ls)
			if c.name != "table1/order12" && truncated == 0 {
				t.Fatal("no point left-truncated")
			}
		})
	}
}

// TestLeftPointAllocs: the left truncation search allocates nothing, on a
// table whose head sums the right truncation search left behind.
func TestLeftPointAllocs(t *testing.T) {
	var tab poisson.Table
	const qt, order = 4000.0, 12
	poissonTable(&tab, qt, order)
	g, right, err := truncationPoint(&tab, order, 0.5, qt, DefaultEpsilon, false, defaultMaxG)
	if err != nil {
		t.Fatal(err)
	}
	tab.Window(g)
	l, _ := leftPoint(&tab, order, 0.5, qt, DefaultEpsilon, right, false, g)
	if l == 0 {
		t.Fatal("no left truncation at q·t = 4,000")
	}
	if a := testing.AllocsPerRun(20, func() {
		leftPoint(&tab, order, 0.5, qt, DefaultEpsilon, right, false, g)
	}); a != 0 {
		t.Fatalf("leftPoint allocates %v times per call", a)
	}
}
