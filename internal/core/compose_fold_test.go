package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// factorSolves solves every factor at tt the way a composed solve does:
// at ε, and once more at ε·ε/B when the fold's bound exceeds ε (B: the
// fold's bound with every factor bound at ε). It returns the final
// solves, and the first ones when there was a second.
func factorSolves(t *testing.T, parts []*Model, tt float64, order int, eps float64) (final, first []*Result) {
	t.Helper()
	solve := func(e float64) []*Result {
		out := make([]*Result, len(parts))
		for k, m := range parts {
			r, err := m.AccumulatedReward(tt, order, &Options{Epsilon: e})
			if err != nil {
				t.Fatal(err)
			}
			out[k] = r
		}
		return out
	}
	final = solve(eps)
	_, bound, atEps := foldMoments(final, eps)
	if slices.Max(bound) <= eps {
		return final, nil
	}
	return solve(eps * eps / slices.Max(atEps)), final
}

// compose3x41 is the composed-kron serving shape: three 41-state ON–OFF
// factors, 68,921 product states, matrix-free.
func compose3x41(tb testing.TB) *Model {
	parts := make([]*Model, 3)
	for i, s2 := range []float64{0, 1, 10} {
		parts[i] = onOffModel(tb, 40, 4, 3, 1, s2)
	}
	joint, err := ComposeAll(parts...)
	if err != nil {
		tb.Fatal(err)
	}
	return joint
}

// TestComposeStateMomentsBitwise: a product-initial composed result
// carries no per-state vectors, and StateMoments builds them once, bit
// for bit the per-state convolution of the factor solves it folded.
func TestComposeStateMomentsBitwise(t *testing.T) {
	a := mustModel(t, cyclic2(t, 2, 3), []float64{1, -0.5}, []float64{0.4, 1}, []float64{1, 0})
	b := birthDeathModel(t, 5)
	c := mustModel(t, cyclic2(t, 0.7, 1.1), []float64{2, 0}, []float64{0, 0.6}, []float64{0.25, 0.75})
	joint, err := ComposeAll(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	const tt, order = 0.7, 4
	got, err := joint.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.VectorMoments != nil {
		t.Fatal("scalar-folded composed result carries VectorMoments")
	}
	factors, _ := factorSolves(t, []*Model{a, b, c}, tt, order, DefaultEpsilon)
	want := convolveStates(convolveStates(factors[0].VectorMoments, factors[1].VectorMoments), factors[2].VectorMoments)
	vm := got.StateMoments()
	if len(vm) != order+1 {
		t.Fatalf("StateMoments has %d orders, want %d", len(vm), order+1)
	}
	for j := range want {
		if len(vm[j]) != joint.N() {
			t.Fatalf("order %d: %d states, want %d", j, len(vm[j]), joint.N())
		}
		for i, w := range want[j] {
			if math.Float64bits(vm[j][i]) != math.Float64bits(w) {
				t.Fatalf("vm[%d][%d] = %x, per-state fold %x", j, i, math.Float64bits(vm[j][i]), math.Float64bits(w))
			}
		}
	}
	if again := got.StateMoments(); &again[0][0] != &vm[0][0] {
		t.Error("StateMoments rebuilt the vectors on its second call")
	}

	// Concurrent first calls share one build.
	fresh, err := joint.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	built := make([][][]float64, 4)
	var wg sync.WaitGroup
	for g := range built {
		wg.Add(1)
		go func() {
			defer wg.Done()
			built[g] = fresh.StateMoments()
		}()
	}
	wg.Wait()
	for g, b := range built {
		if &b[0][0] != &built[0][0][0] {
			t.Errorf("goroutine %d got its own build of the vectors", g)
		}
	}
}

// TestComposeSolveAllocation bounds what one composed-kron solve
// allocates: the factor solves and the scalar fold, no product-length
// buffer (one order of one 68,921-state vector is 551 KB).
func TestComposeSolveAllocation(t *testing.T) {
	joint := compose3x41(t)
	prep, err := Prepare(joint)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		if _, err := prep.AccumulatedReward(0.05, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve() // fill the factors' workspace pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("composed solve allocates %d B per op, want under 64 KB", per)
	}
}

// TestMatrixFreeAccessors: a matrix-free composition stores no
// product-length arrays, and its accessors build them from the factors
// in Compose's state layout; first-order and monotone checks read the
// factors too.
func TestMatrixFreeAccessors(t *testing.T) {
	a := constantRateChain(t, 300, 0.5, 0)
	b := birthDeathModel(t, 257)
	joint, err := Compose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !joint.IsMatrixFree() || joint.rates != nil || joint.vars != nil || joint.initial != nil {
		t.Fatal("matrix-free composition stores product-length arrays")
	}
	if joint.N() != 300*257 {
		t.Fatalf("N = %d, want %d", joint.N(), 300*257)
	}
	rates, vars, pi := joint.Rates(), joint.Variances(), joint.Initial()
	for i := range a.rates {
		for j := range b.rates {
			k := i*257 + j
			if rates[k] != a.rates[i]+b.rates[j] || vars[k] != a.vars[i]+b.vars[j] || pi[k] != a.initial[i]*b.initial[j] {
				t.Fatalf("state (%d,%d): rate %g, variance %g, initial %g", i, j, rates[k], vars[k], pi[k])
			}
		}
	}
	if joint.IsFirstOrder() || joint.isMonotone() {
		t.Error("a factor with variances makes the composition second-order")
	}
	first, err := Compose(a, constantRateChain(t, 257, -0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !first.IsFirstOrder() || !first.isMonotone() {
		t.Error("first-order factors whose smallest drifts sum to 0 make a monotone composition")
	}
}
