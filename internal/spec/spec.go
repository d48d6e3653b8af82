// Package spec defines the JSON interchange format for second-order Markov
// reward models, shared by the command-line tools and usable as a library
// serialization surface. A spec is self-describing and validated on load:
//
//	{
//	  "states": 2,
//	  "transitions": [{"from": 0, "to": 1, "rate": 2.0},
//	                  {"from": 1, "to": 0, "rate": 3.0}],
//	  "rates":     [1.5, -0.5],
//	  "variances": [0.2, 1.0],
//	  "initial":   [1, 0],
//	  "impulses":  [{"from": 0, "to": 1, "reward": 0.1}]
//	}
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"somrm/internal/core"
	"somrm/internal/ctmc"
	"somrm/internal/sparse"
)

// ErrBadSpec is returned when a spec fails structural validation.
var ErrBadSpec = errors.New("spec: invalid model specification")

// Transition is one off-diagonal generator entry.
type Transition struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Rate float64 `json:"rate"`
}

// Impulse is one impulse-reward entry attached to a transition.
type Impulse struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Reward float64 `json:"reward"`
}

// Model is the JSON representation of a second-order Markov reward model.
type Model struct {
	States      int          `json:"states"`
	Transitions []Transition `json:"transitions"`
	Rates       []float64    `json:"rates"`
	Variances   []float64    `json:"variances"`
	Initial     []float64    `json:"initial"`
	Impulses    []Impulse    `json:"impulses,omitempty"`
}

// Parse decodes a JSON spec and rejects non-finite numeric fields. A spec
// in the canonical shape is decoded in a single pass; any other input
// goes through encoding/json, which gives the same Model or the error.
func Parse(data []byte) (*Model, error) {
	s := scanner{data: data}
	m, ok := s.model()
	if !ok || !s.atEnd() {
		m = &Model{}
		if err := json.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate rejects NaN and ±Inf anywhere in the spec's numeric fields with
// an error naming the offending field path (e.g. "transitions[2].rate").
// Specs arriving as JSON cannot encode NaN/Inf literals, but specs built
// programmatically (including every request the solver service receives as
// a Go value) can; this is the single chokepoint that keeps non-finite
// values out of the solvers. Structural validation (index ranges, lengths,
// distribution sums) stays in Build. The field path is formatted only
// for the offending value, so a valid spec costs one comparison per
// number.
func (m *Model) Validate() error {
	for i, tr := range m.Transitions {
		if !finite(tr.Rate) {
			return notFinite(fmt.Sprintf("transitions[%d].rate", i), tr.Rate)
		}
	}
	for _, f := range []struct {
		name string
		vs   []float64
	}{{"rates", m.Rates}, {"variances", m.Variances}, {"initial", m.Initial}} {
		for i, v := range f.vs {
			if !finite(v) {
				return notFinite(fmt.Sprintf("%s[%d]", f.name, i), v)
			}
		}
	}
	for i, im := range m.Impulses {
		if !finite(im.Reward) {
			return notFinite(fmt.Sprintf("impulses[%d].reward", i), im.Reward)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func notFinite(path string, v float64) error {
	return fmt.Errorf("%w: %s=%g is not finite", ErrBadSpec, path, v)
}

// Read decodes a JSON spec from a reader.
func Read(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spec: read: %w", err)
	}
	return Parse(data)
}

// Encode renders the spec as indented JSON.
func (m *Model) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return out, nil
}

// Write encodes the spec as indented JSON to w. Write followed by Parse
// reproduces the spec exactly: float64 values survive because Go's JSON
// encoder emits the shortest representation that round-trips.
func (m *Model) Write(w io.Writer) error {
	out, err := m.Encode()
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("spec: write: %w", err)
	}
	return nil
}

// Build validates the spec and constructs the reward model.
func (m *Model) Build() (*core.Model, error) {
	if m.States < 1 {
		return nil, fmt.Errorf("%w: states=%d", ErrBadSpec, m.States)
	}
	// Every later step allocates States-sized arrays, so the per-state
	// lists must vouch for States first: a hostile count must not be able
	// to exhaust memory before anything compares it with the data.
	for _, f := range []struct {
		name string
		n    int
	}{{"rates", len(m.Rates)}, {"variances", len(m.Variances)}, {"initial", len(m.Initial)}} {
		if f.n != m.States {
			return nil, fmt.Errorf("%w: %d %s for %d states", ErrBadSpec, f.n, f.name, m.States)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	q := m.sortedGenerator()
	if q == nil {
		var err error
		if q, err = m.builtGenerator(); err != nil {
			return nil, err
		}
	}
	gen, err := ctmc.NewGenerator(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	model, err := core.New(gen, m.Rates, m.Variances, m.Initial)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if len(m.Impulses) > 0 {
		ib := sparse.NewBuilder(m.States, m.States)
		for _, im := range m.Impulses {
			if err := ib.Add(im.From, im.To, im.Reward); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
			}
		}
		model, err = model.WithImpulses(ib.Build())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return model, nil
}

// builtGenerator assembles the generator matrix through the COO Builder:
// off-diagonal rates as given, duplicates summed in input order, and each
// row's diagonal the negated sum of its exit rates in input order.
func (m *Model) builtGenerator() (*sparse.CSR, error) {
	b := sparse.NewBuilder(m.States, m.States)
	exits := make([]float64, m.States)
	for _, tr := range m.Transitions {
		if tr.From == tr.To {
			return nil, fmt.Errorf("%w: self-transition on state %d", ErrBadSpec, tr.From)
		}
		if err := b.Add(tr.From, tr.To, tr.Rate); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		exits[tr.From] += tr.Rate
	}
	for i, e := range exits {
		if e != 0 {
			if err := b.Add(i, i, -e); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
			}
		}
	}
	return b.Build(), nil
}

// sortedGenerator assembles the generator matrix in one pass when the
// transitions are strictly increasing in (from, to), in range, loop-free
// and nonzero — the shape specs are usually written in. It returns nil for
// any other list, which builtGenerator handles (and reports errors for).
// The result is bitwise builtGenerator's: each row's exit rates are summed
// in the same order and the diagonal lands in column position.
func (m *Model) sortedGenerator() *sparse.CSR {
	n, trs := m.States, m.Transitions
	rowPtr := make([]int, n+1)
	// Only rows with transitions gain a diagonal entry.
	colIdx := make([]uint32, 0, len(trs)+min(n, len(trs)))
	val := make([]float64, 0, cap(colIdx))
	k := 0
	for i := 0; i < n; i++ {
		end := k
		exit := 0.0
		for ; end < len(trs) && trs[end].From == i; end++ {
			exit += trs[end].Rate
		}
		for ; k < end && trs[k].To < i; k++ {
			if trs[k].To < 0 {
				return nil // out of range, an error builtGenerator reports
			}
			colIdx = append(colIdx, uint32(trs[k].To))
			val = append(val, trs[k].Rate)
		}
		if k < end && trs[k].To == i {
			return nil // a self-loop, an error builtGenerator reports
		}
		if exit != 0 {
			colIdx = append(colIdx, uint32(i))
			val = append(val, -exit)
		}
		for ; k < end; k++ {
			if trs[k].To >= n {
				return nil // out of range, an error builtGenerator reports
			}
			colIdx = append(colIdx, uint32(trs[k].To))
			val = append(val, trs[k].Rate)
		}
		rowPtr[i+1] = len(val)
	}
	if k != len(trs) {
		return nil // rows out of order or out of range
	}
	// NewCSRSorted rejects the rest: columns out of order, repeated or
	// out of range, and zero rates.
	q, err := sparse.NewCSRSorted(n, n, rowPtr, colIdx, val)
	if err != nil {
		return nil
	}
	return q
}

// FromModel converts a built model back to its JSON representation (the
// inverse of Build, modulo ordering of entries).
func FromModel(m *core.Model) (*Model, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadSpec)
	}
	n := m.N()
	out := &Model{
		States:    n,
		Rates:     m.Rates(),
		Variances: m.Variances(),
		Initial:   m.Initial(),
	}
	gen := m.Generator().Matrix()
	for i := 0; i < n; i++ {
		gen.Range(i, func(j int, v float64) {
			if i != j && v > 0 {
				out.Transitions = append(out.Transitions, Transition{From: i, To: j, Rate: v})
			}
		})
	}
	if imp := m.Impulses(); imp != nil {
		for i := 0; i < n; i++ {
			imp.Range(i, func(j int, y float64) {
				if y > 0 {
					out.Impulses = append(out.Impulses, Impulse{From: i, To: j, Reward: y})
				}
			})
		}
	}
	return out, nil
}
