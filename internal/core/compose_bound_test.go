package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"somrm/internal/core"
	"somrm/internal/difftest"
	"somrm/internal/spec"
)

// TestComposeMomentBoundHolds is the property the one-pass composed solve
// rests on: for every factor of the composed difftest corpus, solved at
// the ε the composition fixes before its sweep, the a-priori bound Uₙ
// covers |computed moment| + the factor's ErrorBound at every order and
// from every initial state (so under any initial distribution, product or
// not). Each composition also runs with its drifts made non-positive,
// with zero drifts, and with zero variances.
func TestComposeMomentBoundHolds(t *testing.T) {
	const eps = core.DefaultEpsilon
	times := []float64{0, 0.01, 0.05, 0.5, 2, 10}
	orders := []int{0, 1, 2, 3, 4, 5, 12}
	variants := []struct {
		name  string
		apply func(sp *spec.Model)
	}{
		{"as drawn", func(*spec.Model) {}},
		{"non-positive drifts", func(sp *spec.Model) {
			for i, r := range sp.Rates {
				sp.Rates[i] = -math.Abs(r)
			}
		}},
		{"zero drifts", func(sp *spec.Model) { clear(sp.Rates) }},
		{"zero variances", func(sp *spec.Model) { clear(sp.Variances) }},
	}
	seeds := 16
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		comps := difftest.GenerateComposed(rand.New(rand.NewSource(int64(seed))))
		for _, v := range variants {
			parts := make([]*core.Model, len(comps))
			for k, c := range comps {
				sp := *c
				sp.Rates, sp.Variances = slices.Clone(c.Rates), slices.Clone(c.Variances)
				v.apply(&sp)
				m, err := sp.Build()
				if err != nil {
					t.Fatalf("seed %d %s component %d: %v", seed, v.name, k, err)
				}
				parts[k] = m
			}
			for _, order := range orders {
				for _, tt := range times {
					e, err := core.FactorEpsilon(parts, tt, order, eps)
					if err != nil {
						t.Fatalf("seed %d %s order %d t=%g: %v", seed, v.name, order, tt, err)
					}
					for k, m := range parts {
						res, err := m.AccumulatedReward(tt, order, &core.Options{Epsilon: e})
						if err != nil {
							t.Fatalf("seed %d %s factor %d order %d t=%g: %v", seed, v.name, k, order, tt, err)
						}
						u := core.MomentBound(m, tt, order, eps)
						for n, vn := range res.StateMoments() {
							for i, x := range vn {
								if got := math.Abs(x) + res.Stats.ErrorBound; !(got <= u[n]) {
									t.Errorf("seed %d %s factor %d t=%g order %d: state %d moment %d: |%g| + %g exceeds U = %g",
										seed, v.name, k, tt, order, i, n, x, res.Stats.ErrorBound, u[n])
								}
							}
						}
					}
				}
			}
		}
	}
}
