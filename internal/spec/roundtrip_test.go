package spec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomSpec draws an arbitrary (not necessarily buildable) spec with
// adversarial float values: negative drifts, denormals, and values whose
// decimal representation needs all 17 significant digits.
func randomSpec(rng *rand.Rand) *Model {
	n := 1 + rng.Intn(6)
	m := &Model{
		States:    n,
		Rates:     make([]float64, n),
		Variances: make([]float64, n),
		Initial:   make([]float64, n),
	}
	roughFloat := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(10))
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		case 3:
			return rng.Float64() / 3 // not representable in few digits
		default:
			return -rng.ExpFloat64()
		}
	}
	for i := 0; i < n; i++ {
		m.Rates[i] = roughFloat()
		m.Variances[i] = math.Abs(roughFloat())
		m.Initial[i] = rng.Float64()
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to || rng.Intn(2) == 0 {
				continue
			}
			m.Transitions = append(m.Transitions, Transition{From: from, To: to, Rate: rng.ExpFloat64()})
			if rng.Intn(3) == 0 {
				m.Impulses = append(m.Impulses, Impulse{From: from, To: to, Reward: rng.Float64()})
			}
		}
	}
	return m
}

// TestWriteParseRoundTrip is the property test: Write followed by Parse
// must reproduce the spec exactly — every transition, rate, variance,
// initial probability, and impulse, bit for bit.
func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for iter := 0; iter < 500; iter++ {
		orig := randomSpec(rng)
		var buf bytes.Buffer
		if err := orig.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("iter %d: parse of written spec failed: %v\n%s", iter, err, buf.String())
		}
		if !reflect.DeepEqual(orig, back) {
			t.Fatalf("iter %d: round trip mismatch:\norig: %#v\nback: %#v", iter, orig, back)
		}
	}
}

// TestFromModelRoundTrip checks the deeper property on buildable models:
// spec → Build → FromModel → Write → Parse → Build must agree with the
// original model on every component, including impulses and variances.
func TestFromModelRoundTrip(t *testing.T) {
	src := &Model{
		States: 3,
		Transitions: []Transition{
			{From: 0, To: 1, Rate: 2.25},
			{From: 1, To: 0, Rate: 1.0 / 3.0},
			{From: 1, To: 2, Rate: 0.7},
			{From: 2, To: 0, Rate: 5},
		},
		Rates:     []float64{1.5, -0.5, math.Pi},
		Variances: []float64{0.2, 1.0 / 7.0, 0},
		Initial:   []float64{0.25, 0.25, 0.5},
		Impulses: []Impulse{
			{From: 0, To: 1, Reward: 0.125},
			{From: 2, To: 0, Reward: 1.0 / 9.0},
		},
	}
	model, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	round, err := FromModel(model)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := round.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	model2, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(model.Rates(), model2.Rates()) {
		t.Errorf("rates differ: %v vs %v", model.Rates(), model2.Rates())
	}
	if !reflect.DeepEqual(model.Variances(), model2.Variances()) {
		t.Errorf("variances differ: %v vs %v", model.Variances(), model2.Variances())
	}
	if !reflect.DeepEqual(model.Initial(), model2.Initial()) {
		t.Errorf("initial differs: %v vs %v", model.Initial(), model2.Initial())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a, b := model.Generator().At(i, j), model2.Generator().At(i, j); a != b {
				t.Errorf("generator[%d][%d]: %g vs %g", i, j, a, b)
			}
			var a, b float64
			if imp := model.Impulses(); imp != nil {
				a = imp.At(i, j)
			}
			if imp := model2.Impulses(); imp != nil {
				b = imp.At(i, j)
			}
			if a != b {
				t.Errorf("impulse[%d][%d]: %g vs %g", i, j, a, b)
			}
		}
	}
}

// TestCanonicalOrderInvariance: permuting transitions/impulses must not
// change the reference canonical bytes or the hash, while changing any
// value must.
func TestCanonicalOrderInvariance(t *testing.T) {
	a := &Model{
		States: 2,
		Transitions: []Transition{
			{From: 0, To: 1, Rate: 2},
			{From: 1, To: 0, Rate: 3},
		},
		Rates:     []float64{1.5, -0.5},
		Variances: []float64{0.2, 1},
		Initial:   []float64{1, 0},
		Impulses: []Impulse{
			{From: 0, To: 1, Reward: 0.1},
			{From: 1, To: 0, Reward: 0.2},
		},
	}
	b := &Model{
		States: 2,
		Transitions: []Transition{
			{From: 1, To: 0, Rate: 3},
			{From: 0, To: 1, Rate: 2},
		},
		Rates:     []float64{1.5, -0.5},
		Variances: []float64{0.2, 1},
		Initial:   []float64{1, 0},
		Impulses: []Impulse{
			{From: 1, To: 0, Reward: 0.2},
			{From: 0, To: 1, Reward: 0.1},
		},
	}
	ca, err := referenceCanonical(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := referenceCanonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical bytes differ under permutation:\n%s\n%s", ca, cb)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("hash differs under permutation")
	}
	// Hash must not mutate the receiver's entry order.
	if a.Transitions[0].From != 0 || b.Transitions[0].From != 1 {
		t.Error("Hash mutated receiver ordering")
	}
	b.Rates[0] = 1.5000000000000002
	hc, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("hash insensitive to a 1-ulp rate change")
	}
}
