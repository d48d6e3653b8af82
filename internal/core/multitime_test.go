package core

import (
	"errors"
	"math"
	"testing"
)

func TestAccumulatedRewardAtMatchesPointwise(t *testing.T) {
	m := mustModel(t, cyclic2(t, 2, 5), []float64{-1, 3}, []float64{0.5, 2}, []float64{0.6, 0.4})
	times := []float64{0, 0.1, 0.5, 0.5, 1.2} // includes t=0 and a duplicate
	batch, err := m.AccumulatedRewardAt(times, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(times) {
		t.Fatalf("results = %d", len(batch))
	}
	for idx, tt := range times {
		single, err := m.AccumulatedReward(tt, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= 4; j++ {
			got := batch[idx].Moments[j]
			want := single.Moments[j]
			if math.Abs(got-want) > 1e-11*(1+math.Abs(want)) {
				t.Errorf("t=%g j=%d: batch %.14g vs single %.14g", tt, j, got, want)
			}
		}
		if batch[idx].T != tt {
			t.Errorf("result %d has T=%g, want %g", idx, batch[idx].T, tt)
		}
	}
}

func TestAccumulatedRewardAtSharedWorkIsCheaper(t *testing.T) {
	m := mustModel(t, cyclic2(t, 4, 3), []float64{2, 0.5}, []float64{1, 2}, []float64{1, 0})
	times := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	batch, err := m.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The shared sweep does (max G) iterations total; pointwise would do
	// sum of per-time G. All results report the same shared MatVecs count.
	shared := batch[0].Stats.MatVecs
	var pointwise int64
	for _, tt := range times {
		res, err := m.AccumulatedReward(tt, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		pointwise += res.Stats.MatVecs
	}
	if shared >= pointwise {
		t.Errorf("shared sweep used %d matvecs, pointwise %d", shared, pointwise)
	}
	// Per-time G values match the single-point solver's.
	for idx, tt := range times {
		single, err := m.AccumulatedReward(tt, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if batch[idx].Stats.G != single.Stats.G {
			t.Errorf("t=%g: batch G=%d vs single G=%d", tt, batch[idx].Stats.G, single.Stats.G)
		}
	}
}

func TestAccumulatedRewardAtWithImpulses(t *testing.T) {
	base := mustModel(t, cyclic2(t, 2, 3), []float64{1, 0.5}, []float64{0.2, 0.4}, []float64{1, 0})
	m, err := base.WithImpulses(impulseMatrix(t, 2, [3]float64{0, 1, 0.7}))
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.3, 0.9}
	batch, err := m.AccumulatedRewardAt(times, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for idx, tt := range times {
		single, err := m.AccumulatedReward(tt, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= 3; j++ {
			if math.Abs(batch[idx].Moments[j]-single.Moments[j]) > 1e-10*(1+math.Abs(single.Moments[j])) {
				t.Errorf("impulse t=%g j=%d mismatch", tt, j)
			}
		}
	}
}

func TestAccumulatedRewardAtFrozenChain(t *testing.T) {
	gen, err := reducibleFrozen(t)
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, gen, []float64{2, 1}, []float64{1, 0}, []float64{0.5, 0.5})
	batch, err := m.AccumulatedRewardAt([]float64{0.5, 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := m.AccumulatedReward(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(batch[1].Moments[2]-single.Moments[2]) > 1e-14 {
		t.Error("frozen-chain fallback mismatch")
	}
}

func TestAccumulatedRewardAtErrors(t *testing.T) {
	m := mustModel(t, cyclic2(t, 1, 1), []float64{1, 1}, []float64{1, 1}, []float64{1, 0})
	if _, err := m.AccumulatedRewardAt(nil, 2, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("empty times: %v", err)
	}
	if _, err := m.AccumulatedRewardAt([]float64{-1}, 2, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative time: %v", err)
	}
	if _, err := m.AccumulatedRewardAt([]float64{math.NaN()}, 2, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("NaN time: %v", err)
	}
	if _, err := m.AccumulatedRewardAt([]float64{1}, -1, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative order: %v", err)
	}
	if _, err := m.AccumulatedRewardAt([]float64{1}, 2, &Options{Epsilon: 7}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("bad epsilon: %v", err)
	}
	if _, err := m.AccumulatedRewardAt([]float64{1}, 2, &Options{UniformizationRate: 0.5}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("low rate: %v", err)
	}
}

// TestMaxGAtTruncationPoint pins Options.MaxG as a cap on G itself: on
// the Table 1 model (order 12, t = 0.55, G = 205) a solve with MaxG = G
// returns the uncapped solve's G, error bound and moments, and MaxG =
// G − 1 is an ErrBadArgument — through the vector solver (solveAt) and
// the joint-moment path alike.
func TestMaxGAtTruncationPoint(t *testing.T) {
	m := onOffModel(t, 32, 4, 3, 1, 10)
	const tt, order = 0.55, 12
	free, err := m.AccumulatedReward(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := free.Stats.G
	if g != 205 {
		t.Fatalf("uncapped G = %d, want 205", g)
	}
	capped, err := m.AccumulatedReward(tt, order, &Options{MaxG: g})
	if err != nil {
		t.Fatalf("MaxG = G = %d: %v", g, err)
	}
	if capped.Stats.G != g || math.Float64bits(capped.Stats.ErrorBound) != math.Float64bits(free.Stats.ErrorBound) {
		t.Fatalf("MaxG = G: G=%d bound=%g, uncapped G=%d bound=%g", capped.Stats.G, capped.Stats.ErrorBound, g, free.Stats.ErrorBound)
	}
	for j := range free.Moments {
		if math.Float64bits(capped.Moments[j]) != math.Float64bits(free.Moments[j]) {
			t.Fatalf("MaxG = G: moment %d = %g, uncapped %g", j, capped.Moments[j], free.Moments[j])
		}
	}
	if _, err := m.AccumulatedReward(tt, order, &Options{MaxG: g - 1}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("MaxG = G-1: err %v, want ErrBadArgument", err)
	}

	jfree, err := m.JointMoments(tt, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jfree.Stats.G != g {
		t.Fatalf("joint G = %d, vector G = %d", jfree.Stats.G, g)
	}
	jcapped, err := m.JointMoments(tt, order, &Options{MaxG: g})
	if err != nil {
		t.Fatalf("joint MaxG = G: %v", err)
	}
	if jcapped.Stats.G != g || math.Float64bits(jcapped.Stats.ErrorBound) != math.Float64bits(jfree.Stats.ErrorBound) {
		t.Fatalf("joint MaxG = G: G=%d bound=%g, uncapped bound=%g", jcapped.Stats.G, jcapped.Stats.ErrorBound, jfree.Stats.ErrorBound)
	}
	if _, err := m.JointMoments(tt, order, &Options{MaxG: g - 1}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("joint MaxG = G-1: err %v, want ErrBadArgument", err)
	}
}
