package spec_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"somrm/internal/ctmc"
	"somrm/internal/difftest"
	"somrm/internal/sparse"
	"somrm/internal/spec"
)

// csrEntries flattens a matrix into per-row entry counts, column indexes
// and value bits, which pin down its stored form exactly.
func csrEntries(m *sparse.CSR) (counts, cols []int, bits []uint64) {
	for i := 0; i < m.Rows(); i++ {
		before := len(cols)
		m.Range(i, func(j int, v float64) {
			cols = append(cols, j)
			bits = append(bits, math.Float64bits(v))
		})
		counts = append(counts, len(cols)-before)
	}
	return counts, cols, bits
}

func requireSameBits(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	gc, gj, gv := csrEntries(got)
	wc, wj, wv := csrEntries(want)
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || len(gj) != len(wj) {
		t.Fatalf("%s: %dx%d nnz %d, want %dx%d nnz %d", what, got.Rows(), got.Cols(), len(gj), want.Rows(), want.Cols(), len(wj))
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: row %d holds %d entries, want %d", what, i, gc[i], wc[i])
		}
	}
	for k := range gj {
		if gj[k] != wj[k] || gv[k] != wv[k] {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", what, k, gj[k], gv[k], wj[k], wv[k])
		}
	}
}

// builderUniformized is Q' = Q/q + I formed through a COO Builder: every
// entry scaled by 1/q, then the unit diagonal.
func builderUniformized(q *sparse.CSR, rate float64) *sparse.CSR {
	scale := 1 / rate
	b := sparse.NewBuilder(q.Rows(), q.Cols())
	for i := 0; i < q.Rows(); i++ {
		q.Range(i, func(j int, v float64) { _ = b.Add(i, j, float64(v*scale)) })
		_ = b.Add(i, i, 1)
	}
	return b.Build()
}

// sortedCopy returns sp with its transitions sorted by (from, to) and
// duplicates dropped (first kept), so the one-pass assembly applies.
func sortedCopy(sp *spec.Model) *spec.Model {
	c := *sp
	c.Transitions = append([]spec.Transition(nil), sp.Transitions...)
	sort.SliceStable(c.Transitions, func(i, j int) bool {
		a, b := c.Transitions[i], c.Transitions[j]
		return a.From < b.From || a.From == b.From && a.To < b.To
	})
	out := c.Transitions[:0]
	for k, tr := range c.Transitions {
		if k == 0 || tr.From != out[len(out)-1].From || tr.To != out[len(out)-1].To {
			out = append(out, tr)
		}
	}
	c.Transitions = out
	return &c
}

// checkAssembly compares, for one spec, the one-pass generator with the
// Builder generator and the uniformized Q' built from the spec with the
// Builder formulation, all bitwise. wantSorted asserts the one-pass path
// applied.
func checkAssembly(t *testing.T, name string, sp *spec.Model, wantSorted bool) {
	t.Helper()
	sorted, built, err := spec.GeneratorPaths(sp)
	if err != nil {
		if sorted != nil {
			t.Fatalf("%s: one-pass assembly accepted a spec the builder rejects: %v", name, err)
		}
		return
	}
	if wantSorted && sorted == nil {
		t.Fatalf("%s: one-pass assembly declined a sorted spec", name)
	}
	if sorted != nil {
		requireSameBits(t, name+" generator", sorted, built)
	}
	model, err := sp.Build()
	if err != nil {
		return // invalid specs fail identically on either path
	}
	gen := model.Generator()
	if gen.MaxExitRate() == 0 {
		return
	}
	refGen, err := ctmc.NewGenerator(built)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.Uniformized(gen.MaxExitRate())
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, name+" uniformized", got, builderUniformized(refGen.Matrix(), refGen.MaxExitRate()))
}

// TestAssemblyBitwiseDifftestCorpora runs the difftest corpora through
// both generator assemblies and both uniformizations, as generated
// (unsorted, with duplicate pairs) and sorted.
func TestAssemblyBitwiseDifftestCorpora(t *testing.T) {
	gens := map[string]func(*rand.Rand) *spec.Model{
		"generate": difftest.Generate, "birthdeath": difftest.GenerateBirthDeath, "component": difftest.GenerateComponent,
	}
	for name, gen := range gens {
		for seed := int64(1); seed <= 150; seed++ {
			sp := gen(rand.New(rand.NewSource(seed)))
			checkAssembly(t, name, sp, false)
			checkAssembly(t, name+"/sorted", sortedCopy(sp), true)
		}
	}
}

// TestAssemblyBitwiseRandomSpecs covers what the corpora do not: zero
// rates, self-loops, out-of-range endpoints, empty rows, rows whose exit
// rates cancel, and the q-row where 1 − exit/q == 0.
func TestAssemblyBitwiseRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(15)
		sp := &spec.Model{States: n, Rates: make([]float64, n), Variances: make([]float64, n), Initial: make([]float64, n)}
		sp.Initial[0] = 1
		for e := rng.Intn(3 * n); e > 0; e-- {
			tr := spec.Transition{From: rng.Intn(n), To: rng.Intn(n), Rate: 0.1 + rng.ExpFloat64()}
			switch rng.Intn(20) {
			case 0:
				tr.Rate = 0
			case 1:
				tr.Rate = -tr.Rate
			case 2:
				tr.To = n
			}
			if tr.From == tr.To && rng.Intn(4) != 0 {
				continue
			}
			sp.Transitions = append(sp.Transitions, tr)
		}
		if iter%2 == 0 {
			sp = sortedCopy(sp)
		}
		checkAssembly(t, "random", sp, false)
	}
}
