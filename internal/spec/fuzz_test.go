package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// fuzzSeeds seeds every spec fuzz target: valid and invalid specs,
// impulse-bearing specs, and the decoder's edge cases — number syntax at
// the formatting boundaries, nulls and empty lists, duplicate, case-folded
// and escaped keys, and trailing garbage.
var fuzzSeeds = []string{
	valid,
	`{}`,
	`{"states": -1}`,
	`{"states": 1, "rates": [1e308], "variances": [0], "initial": [1]}`,
	// Impulse-bearing seeds: a valid impulse, an impulse on an absent
	// transition, a diagonal impulse, and an out-of-range endpoint.
	`{"states": 2, "transitions": [{"from":0,"to":1,"rate":2},{"from":1,"to":0,"rate":3}], "rates": [1,0], "variances": [0.1,0.2], "initial": [1,0], "impulses": [{"from":0,"to":1,"reward":0.5}]}`,
	`{"states": 2, "transitions": [{"from":0,"to":1,"rate":2},{"from":1,"to":0,"rate":3}], "rates": [1,0], "variances": [0,0], "initial": [0,1], "impulses": [{"from":1,"to":0,"reward":1e-300},{"from":0,"to":1,"reward":7}]}`,
	`{"states": 3, "transitions": [{"from":0,"to":1,"rate":1}], "rates": [1,1,1], "variances": [0,0,0], "initial": [1,0,0], "impulses": [{"from":1,"to":2,"reward":0.25}]}`,
	`{"states": 2, "transitions": [{"from":0,"to":1,"rate":1},{"from":1,"to":0,"rate":1}], "rates": [0,0], "variances": [0,0], "initial": [1,0], "impulses": [{"from":0,"to":0,"reward":1}]}`,
	`{"states": 1, "rates": [0], "variances": [0], "initial": [1], "impulses": [{"from":0,"to":9,"reward":2}]}`,
	// Decoder edges.
	`{"states":2,"transitions":[{"from":1,"to":0,"rate":-0},{"from":0,"to":1,"rate":1E+2}],"rates":[1e-7,1e21],"variances":[5e-324,0.000001],"initial":[1,0]}`,
	`{"states":1,"rates":[-0.0,1e400],"variances":[0],"initial":[1]}`,
	`{"states":1.0,"rates":[1],"variances":[0],"initial":[1]}`,
	`{"states":"1"}`,
	`{"states":9223372036854775808}`,
	`{"states":-9223372036854775808,"rates":[123456789012345678901234567890]}`,
	`{"states":1,"rates":[1],"rates":[2],"variances":[0],"initial":[1]}`,
	// A repeated list of objects merges into the first one's elements.
	`{"states":2,"transitions":[{"from":1,"to":0,"rate":3}],"transitions":[{"to":1}]}`,
	`{"States":1,"Rates":[1],"variances":[0],"initial":[1]}`,
	`{"states":1,"rates":[1],"variances":[0],"initial":[1]}`,
	`{"states":1,"transitions":null,"rates":null,"variances":null,"initial":null,"impulses":null}`,
	`{"states":1,"transitions":[],"rates":[],"variances":[],"initial":[],"impulses":[]}`,
	`{"states":2,"transitions":[{"from":0,"to":1,"rate":1,"rate":2}]}`,
	`{"states":2,"transitions":[{"from":0,"to":1,"reward":1},{}]}`,
	`{"states":1,"rates":[1],"variances":[0],"initial":[1]} x`,
	`{"states":1,"rates":[01],"variances":[0],"initial":[1]}`,
	` {"states" : 1 , "rates" : [ 1.5e-3 ] }` + "\n",
	`null`,
	`[]`,
	// A huge state count with one-element lists must fail on the length
	// check before anything allocates States-sized arrays.
	`{"states":2036854757808,"transitions":[],"rates":[1],"variances":[0],"initial":[1]}`,
}

// FuzzParseBuild ensures arbitrary JSON never panics the parser or the
// model builder: every input either round-trips into a valid model or
// returns an error.
func FuzzParseBuild(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		model, err := m.Build()
		if err != nil {
			return
		}
		// A successfully built model must be internally consistent.
		if model.N() != m.States {
			t.Fatalf("built model has %d states, spec says %d", model.N(), m.States)
		}
		if _, err := FromModel(model); err != nil {
			t.Fatalf("round-trip of valid model failed: %v", err)
		}
	})
}

// FuzzSpecDecode is the differential check of the single-pass decoder
// against encoding/json: the scanner and Parse must agree with
// json.Unmarshal on the error, Parse's text included, and, with
// reflect.DeepEqual, on the decoded value — nil versus empty slices
// included, since those change the canonical bytes.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Model
		refErr := json.Unmarshal(data, &ref)

		s := scanner{data: data}
		if fast, ok := s.model(); ok && s.atEnd() {
			if refErr != nil {
				t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", refErr, data)
			}
			if !reflect.DeepEqual(*fast, ref) {
				t.Fatalf("scanner decode differs:\nfast %#v\nref  %#v\ninput %q", *fast, ref, data)
			}
		}

		p, err := Parse(data)
		if refErr != nil {
			if want := fmt.Errorf("%w: %v", ErrBadSpec, refErr); fmt.Sprint(err) != want.Error() {
				t.Fatalf("Parse error %v, want %v: %q", err, want, data)
			}
			return
		}
		if verr := ref.Validate(); (err != nil) != (verr != nil) {
			t.Fatalf("Parse error %v, reference validation %v: %q", err, verr, data)
		}
		if err == nil && !reflect.DeepEqual(*p, ref) {
			t.Fatalf("Parse decode differs:\ngot %#v\nref %#v", *p, ref)
		}
	})
}

// TestScanAllocationFollowsLists pins the decoder's allocation to the
// lists it reads: neither a declared states count nor the bytes after a
// list size it, so short lists in a large body cost the body's copy and
// little else.
func TestScanAllocationFollowsLists(t *testing.T) {
	pad := strings.Repeat("{},", 8<<20/3)
	for _, model := range []string{
		`{"states":4000000,"rates":[1],"variances":[1],"initial":[1]}`,
		`{"states":4000000,"transitions":[{"from":0,"to":1,"rate":1}],"impulses":[],"rates":[1,2],"variances":[1,2],"initial":[1,0]}`,
	} {
		body := []byte(`{"model":` + model + `,"pad":"` + pad + `"}`)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, rest, ok := CutModel(body)
		runtime.ReadMemStats(&after)
		if !ok || m.States != 4000000 || len(rest) != len(body)-len(model)+len("null") {
			t.Fatalf("CutModel(%s...) = %v, %d bytes, %v", model, m, len(rest), ok)
		}
		// The remainder copy is one body length; allow a quarter more.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(body))*5/4; got > limit {
			t.Errorf("CutModel(%s...) allocated %d bytes for a %d-byte body, want at most %d", model, got, len(body), limit)
		}
	}
}

// referenceCanonical is the json.Marshal formulation of Canonical: sort
// copies of the lists and marshal.
func referenceCanonical(m *Model) ([]byte, error) {
	c := Model{States: m.States, Rates: m.Rates, Variances: m.Variances, Initial: m.Initial}
	if len(m.Transitions) > 0 {
		c.Transitions = append([]Transition(nil), m.Transitions...)
		sort.Slice(c.Transitions, func(i, j int) bool {
			a, b := c.Transitions[i], c.Transitions[j]
			return a.From < b.From || a.From == b.From && a.To < b.To
		})
	}
	if len(m.Impulses) > 0 {
		c.Impulses = append([]Impulse(nil), m.Impulses...)
		sort.Slice(c.Impulses, func(i, j int) bool {
			a, b := c.Impulses[i], c.Impulses[j]
			return a.From < b.From || a.From == b.From && a.To < b.To
		})
	}
	out, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("spec: canonical: %w", err)
	}
	return out, nil
}

// specFromBytes builds an arbitrary spec from fuzz bytes: a flag byte
// choosing nil, empty or filled lists, then 10-byte records of two small
// endpoints and raw float64 bits (NaN, ±Inf, subnormals and -0 included).
func specFromBytes(data []byte) *Model {
	m := &Model{}
	if len(data) == 0 {
		return m
	}
	flags := data[0]
	m.States = int(int8(flags))
	for k, rec := 0, data[1:]; len(rec) >= 10; k, rec = k+1, rec[10:] {
		from, to := int(rec[0]%5), int(rec[1]%5)
		v := math.Float64frombits(binary.LittleEndian.Uint64(rec[2:10]))
		switch (int(rec[0]>>4) + k) % 5 {
		case 0:
			m.Transitions = append(m.Transitions, Transition{From: from, To: to, Rate: v})
		case 1:
			m.Impulses = append(m.Impulses, Impulse{From: from, To: to, Reward: v})
		case 2:
			m.Rates = append(m.Rates, v)
		case 3:
			m.Variances = append(m.Variances, v)
		default:
			m.Initial = append(m.Initial, v)
		}
	}
	empty := func(bit byte) bool { return flags&bit != 0 }
	if m.Transitions == nil && empty(1) {
		m.Transitions = []Transition{}
	}
	if m.Rates == nil && empty(2) {
		m.Rates = []float64{}
	}
	if m.Variances == nil && empty(4) {
		m.Variances = []float64{}
	}
	if m.Initial == nil && empty(8) {
		m.Initial = []float64{}
	}
	if m.Impulses == nil && empty(16) {
		m.Impulses = []Impulse{}
	}
	return m
}

// FuzzCanonicalWriter checks the one-pass canonical writer against
// json.Marshal of the sorted copy, byte for byte and error text for error
// text, on specs built from raw float bits and on decoded JSON seeds, and
// that Hash streams exactly those bytes into the digest.
func FuzzCanonicalWriter(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 9.999999999999999e20, 5e-324, 100, -3, 999999999999999, 1e15, 4503599627370497, math.NaN(), math.Inf(-1)} {
		rec := make([]byte, 11)
		rec[0] = 3
		binary.LittleEndian.PutUint64(rec[3:], math.Float64bits(v))
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs := []*Model{specFromBytes(data)}
		var ref Model
		if json.Unmarshal(data, &ref) == nil {
			specs = append(specs, &ref)
		}
		for _, m := range specs {
			want, wantErr := referenceCanonical(m)
			got, err := m.Canonical()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || string(got) != string(want) {
				t.Fatalf("Canonical = %q, %v; json.Marshal = %q, %v", got, err, want, wantErr)
			}
			h, err := m.Hash()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && h != sha256.Sum256(want)) {
				t.Fatalf("Hash = %x, %v; want digest of %q, %v", h, err, want, wantErr)
			}
		}
	})
}
