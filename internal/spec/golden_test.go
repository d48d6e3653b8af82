package spec_test

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"somrm/internal/difftest"
	"somrm/internal/spec"
)

// goldenSpec is one pinned hash case: a spec given either as a Go value
// or as JSON text decoded through spec.Parse.
type goldenSpec struct {
	name string
	m    *spec.Model
	json string
}

// goldenSpecs lists the specs whose Hash is pinned in goldenHashes. The
// hashes are those of the binary canonical form tagged somrm/spec/v2, so
// this test is the proof that result-cache keys, ring placement and
// journal spec_hash values survive any rewrite of the hasher or the
// decoder. (The v1 pins were digests of the json.Marshal text; that the
// v2 form draws the same equalities is TestHashEquivalence's and
// FuzzCanonicalWriter's to prove.)
func goldenSpecs() []goldenSpec {
	var out []goldenSpec
	for seed := int64(1); seed <= 12; seed++ {
		out = append(out,
			goldenSpec{name: fmt.Sprintf("generate/%d", seed), m: difftest.Generate(rand.New(rand.NewSource(seed)))},
			goldenSpec{name: fmt.Sprintf("birthdeath/%d", seed), m: difftest.GenerateBirthDeath(rand.New(rand.NewSource(seed)))},
			goldenSpec{name: fmt.Sprintf("component/%d", seed), m: difftest.GenerateComponent(rand.New(rand.NewSource(seed)))},
		)
	}

	// Unsorted lists with duplicate (from, to) pairs, long enough that the
	// canonical sort leaves insertion sort and the order of equal keys
	// depends on the sort algorithm itself.
	for _, size := range []int{5, 13, 40, 300} {
		rng := rand.New(rand.NewSource(int64(size)))
		m := &spec.Model{States: 4, Rates: []float64{1, 2, 3, 4}, Variances: []float64{0, 0.5, 1, 0}, Initial: []float64{1, 0, 0, 0}}
		for k := 0; k < size; k++ {
			from, to := rng.Intn(4), rng.Intn(4)
			m.Transitions = append(m.Transitions, spec.Transition{From: from, To: to, Rate: rng.ExpFloat64()})
			if k%3 == 0 {
				m.Impulses = append(m.Impulses, spec.Impulse{From: to, To: from, Reward: rng.Float64()})
			}
		}
		out = append(out, goldenSpec{name: fmt.Sprintf("duplicates/%d", size), m: m})
	}
	out = append(out, goldenSpec{name: "unsorted", m: &spec.Model{
		States: 3,
		Transitions: []spec.Transition{
			{From: 2, To: 0, Rate: 1.5}, {From: 0, To: 2, Rate: 0.25}, {From: 1, To: 0, Rate: 3}, {From: 0, To: 1, Rate: 2},
		},
		Rates: []float64{1, -2, 0.5}, Variances: []float64{0.1, 0, 2}, Initial: []float64{0.5, 0.5, 0},
		Impulses: []spec.Impulse{{From: 1, To: 0, Reward: 0.75}, {From: 0, To: 1, Reward: 0.5}},
	}})

	// Float formatting edges: the 'f'/'e' switch at 1e-6 and 1e21, the
	// exponent cleanup, negative zero, the smallest subnormal and the
	// largest float.
	out = append(out, goldenSpec{name: "floats", m: &spec.Model{
		States:      2,
		Transitions: []spec.Transition{{From: 0, To: 1, Rate: 1e-7}, {From: 1, To: 0, Rate: 1e21}},
		Rates:       []float64{math.Copysign(0, -1), 5e-324},
		Variances:   []float64{1e-6, 9.999999999999999e20},
		Initial:     []float64{math.MaxFloat64, -1e-300},
		Impulses:    []spec.Impulse{{From: 0, To: 1, Reward: 123456789.125e-15}},
	}})
	out = append(out,
		goldenSpec{name: "zero", m: &spec.Model{}},
		goldenSpec{name: "empty-lists", m: &spec.Model{States: 1, Transitions: []spec.Transition{}, Rates: []float64{}, Variances: []float64{}, Initial: []float64{}, Impulses: []spec.Impulse{}}},
	)

	// JSON sources, decoded through Parse.
	for _, js := range []struct{ name, text string }{
		{"json/edges", `{"states":2,"transitions":[{"from":1,"to":0,"rate":1E+2},{"from":0,"to":1,"rate":-0}],"rates":[1e-7,1e21],"variances":[5e-324,0.000001],"initial":[1,0]}`},
		{"json/null-lists", `{"states":1,"transitions":null,"rates":null,"variances":null,"initial":null,"impulses":null}`},
		{"json/empty-lists", `{"states":1,"transitions":[],"rates":[],"variances":[],"initial":[],"impulses":[]}`},
		{"json/states-only", `{"states":3}`},
		{"json/missing-fields", `{"states":2,"transitions":[{"to":1},{"from":1,"rate":2}],"rates":[1,2],"variances":[0,0],"initial":[0,1]}`},
		{"json/duplicate-rates", `{"states":1,"rates":[1],"variances":[0],"initial":[1],"rates":[2]}`},
		{"json/case-folded", `{"States":1,"Rates":[3],"variances":[0],"initial":[1]}`},
		{"json/whitespace", " {\n\t\"states\" : 2 ,\r\n \"transitions\" : [ { \"from\" : 0 , \"to\" : 1 , \"rate\" : 0.5 } ] ,\"rates\":[ 1 , 2 ],\"variances\":[0,0],\"initial\":[1,0]}\n"},
		{"json/impulses", `{"states":2,"transitions":[{"from":0,"to":1,"rate":2},{"from":1,"to":0,"rate":3}],"rates":[1,0],"variances":[0.1,0.2],"initial":[1,0],"impulses":[{"from":1,"to":0,"reward":1e-300},{"from":0,"to":1,"reward":7}]}`},
		{"json/escaped-key", `{"st\u0061tes":2,"rates":[1,1],"variances":[0,0],"initial":[1,0]}`},
		{"json/unknown-key", `{"states":1,"rates":[1],"variances":[0],"initial":[1],"comment":"x"}`},
	} {
		out = append(out, goldenSpec{name: js.name, json: js.text})
	}
	return out
}

func TestGoldenHashes(t *testing.T) {
	for _, g := range goldenSpecs() {
		m := g.m
		if g.json != "" {
			var err error
			if m, err = spec.Parse([]byte(g.json)); err != nil {
				t.Fatalf("%s: parse: %v", g.name, err)
			}
		}
		h, err := m.Hash()
		if err != nil {
			t.Fatalf("%s: hash: %v", g.name, err)
		}
		want, ok := goldenHashes[g.name]
		if !ok {
			t.Errorf("%s: no pinned hash (got %s)", g.name, hex.EncodeToString(h[:]))
			continue
		}
		if got := hex.EncodeToString(h[:]); got != want {
			t.Errorf("%s: hash %s, pinned %s", g.name, got, want)
		}
	}
}

// TestGoldenCanonicalErrors pins the error text of unhashable specs: the
// first non-finite value in canonical order is the one reported.
func TestGoldenCanonicalErrors(t *testing.T) {
	for _, c := range []struct {
		m    *spec.Model
		want string
	}{
		{&spec.Model{States: 1, Rates: []float64{math.NaN()}}, "spec: canonical: json: unsupported value: NaN"},
		{&spec.Model{States: 2, Transitions: []spec.Transition{{From: 1, To: 0, Rate: math.Inf(-1)}, {From: 0, To: 1, Rate: math.Inf(1)}}}, "spec: canonical: json: unsupported value: +Inf"},
		{&spec.Model{States: 1, Initial: []float64{0}, Impulses: []spec.Impulse{{Reward: math.NaN()}}, Variances: []float64{math.Inf(-1)}}, "spec: canonical: json: unsupported value: -Inf"},
	} {
		if _, err := c.m.Hash(); err == nil || err.Error() != c.want {
			t.Errorf("Hash error %v, want %q", err, c.want)
		}
	}
}

// TestHashEquivalence is the property test of the binary canonical form
// against the json.Marshal text it replaced. Over the golden corpus,
// difftest-generated specs and non-finite specs, each paired with
// re-spelled, permuted and perturbed variants of itself (spec.HashVariant)
// and each variant with the one before, two specs hash equal exactly
// when their canonical texts are equal, and a spec fails to hash exactly
// when its text fails to marshal, with the same error.
func TestHashEquivalence(t *testing.T) {
	var bases []*spec.Model
	for _, g := range goldenSpecs() {
		m := g.m
		if g.json != "" {
			var err error
			if m, err = spec.Parse([]byte(g.json)); err != nil {
				t.Fatalf("%s: parse: %v", g.name, err)
			}
		}
		bases = append(bases, m)
	}
	bases = append(bases,
		&spec.Model{States: 1, Rates: []float64{math.NaN()}},
		&spec.Model{States: 2, Transitions: []spec.Transition{{From: 1, To: 0, Rate: math.Inf(-1)}, {From: 0, To: 1, Rate: math.Inf(1)}}},
		&spec.Model{States: 1, Initial: []float64{0}, Impulses: []spec.Impulse{{Reward: math.NaN()}}, Variances: []float64{math.Inf(-1)}},
	)
	rng := rand.New(rand.NewSource(25))
	for seed := int64(100); len(bases) < 400; seed++ {
		src := rand.New(rand.NewSource(seed))
		bases = append(bases, difftest.Generate(src), difftest.GenerateBirthDeath(src), difftest.GenerateComponent(src))
	}
	pairs, equal := 0, 0
	for _, b := range bases {
		prev := b
		for k := 0; k < 13; k++ {
			v := spec.HashVariant(rng, b)
			for _, a := range []*spec.Model{b, prev} {
				pairs++
				if spec.CheckHashPair(t, a, v) {
					equal++
				}
			}
			prev = v
		}
	}
	t.Logf("%d pairs, %d hash equal", pairs, equal)
	if pairs < 10000 || equal < pairs/10 || pairs-equal < pairs/10 {
		t.Errorf("%d pairs with %d equal: want at least 10,000 pairs, a tenth of them equal and a tenth not", pairs, equal)
	}
}

var goldenHashes = map[string]string{
	"generate/1":           "4c513202d38c958c0fd77d17e6bfb8ffa9347e60086dd2a8017575a72943a628",
	"birthdeath/1":         "66f5f9387c4c0ae3c58e19c5f64193392bb9adee21fefaa9ed6be12ffab960ee",
	"component/1":          "4b246135dd22956142e0fe608bfa42ea1766d10428b0214a17cf2a71490531c9",
	"generate/2":           "6acb0774b2a24df2f0c97e4d5fb51bf7fa0bb2a8f909b1389f265aa78b2c514b",
	"birthdeath/2":         "60edeee163424e8e18bff796f96edb0e5c9906f839c5517133be18cbb101326e",
	"component/2":          "b5d2eef010e1355474678f9939481d19d97b516f607ee2c25458ecbe26094107",
	"generate/3":           "2317dfaf204d08b08840c8d66fa043749927ba3f7fb2ed3fdedc19ab58a6fd54",
	"birthdeath/3":         "21396368dc193aba631d31a35a5c6ba1057983e8549782d589908169062f9643",
	"component/3":          "5503dfb8df13bb3adc9011815c1a3b9539fb7ddf811e36a0dc6cca4ca1a7b46b",
	"generate/4":           "554022e89af2ec56eddf8cc0116b2d0d0771bade0f8b8f22d4e47776c48931de",
	"birthdeath/4":         "bbe9b5c8a80cf656b45c287b4c90f3875649ff8c475ec2e8f3912ed14e736b8d",
	"component/4":          "733b147b28c6aabdeb76111b06315f782810fb555dfe0998519091122f0cc803",
	"generate/5":           "685c338aef0ba7ebcaf4bdd9a01a163e60f77e8c811436348760fb16f10ff1b7",
	"birthdeath/5":         "fea9b2b2a4fa617489a4753a6e2a5808fddafd81718872396ec2f1dfa74245a1",
	"component/5":          "10e4d517103835454a7d59f6641bd4d5f6d55d013a4ff4111946b5b1b46b8ec0",
	"generate/6":           "b61991a34ba77aba994121237b858797eea109800f7e4e2fa7c31120a51e0f27",
	"birthdeath/6":         "87c68823d02134fbc4a9d15ccfd88f4386e5cfb35b879143b2c260d122a63f5c",
	"component/6":          "25a2e24ea1975b3d6110e95a8bac8dd54f884153fe6f2328e859d670c29d3dcd",
	"generate/7":           "bfbe137e57385f1004e91458824170254a68ccd1a1c80343372f26d752b8bac3",
	"birthdeath/7":         "c534bd89569a916e5572897bc27a55b85fa4977aeff64a4c90c0a29579b0c53d",
	"component/7":          "4caf82922c83a29decc3ab9711ca35d0306004c6bd029cc37fde30e0f49698e6",
	"generate/8":           "8f8683b923234d7ee7b1c275e209a9b74f0fdc50b39fb4c5713354bf67fa8048",
	"birthdeath/8":         "7a712920c3803ea0b723f7329407c707dc3de2ace0fc5575fc6f5a077c49c9d8",
	"component/8":          "a178ef9490d5c78dea438f0c4b23d9554662738b2eeb62aaf7eac4ead2e5c3a6",
	"generate/9":           "6afda8b92f5a48210e68ee66f777c24c70c6bd3476f694913b091d8fcc2f20b9",
	"birthdeath/9":         "1e103df0c66098488d6c3064d3524fce3085a315e41cd457cd3a61f7e460acd2",
	"component/9":          "6d35483251fedaf26b6eb91720d48848d6ba159620e86bbdf410ae1ab3aa7e11",
	"generate/10":          "6019ce424dfca0f6207422666062198d86e2ca6e0d4c3ddf6e91a57606a48914",
	"birthdeath/10":        "df638036900152af11f903924f87881cb5e8ad9109f05022afe374dba0564e40",
	"component/10":         "c71f253296e1220b94f36efda1300e8e275444b227a415d910a2d997cd798e29",
	"generate/11":          "ba22287b75470ae17db79446d81036216c0fa7c6bfb330fab39ecc4a1e0d477b",
	"birthdeath/11":        "e0eb18d3ce9940845c569933aba3852ed530a20cd56960cccf768273aaf4e2d0",
	"component/11":         "5ff3fbacf7d1870e085bd84bdcc2481c061cf81e6380c156c51b5306245faaeb",
	"generate/12":          "dbbe34b7cacd94adfa16b3fddf4d1ca7b2f05d029ec097488d5df16b38821b65",
	"birthdeath/12":        "c70263ba0b31016cca79baf4a866e9fa023a457ef300dc7551f56ac56327b840",
	"component/12":         "1b4ed1c23bbec150ea943ff38959328382ed677ac8208062d795ae11cb6563d4",
	"duplicates/5":         "cbd323bdaee3d2462bb6784672aebae4eee8af05f60308d4b91df98e0f660684",
	"duplicates/13":        "d595f7f1f1f76fbedf52c2f9662bf405d7a2b142f77df477298181171138776a",
	"duplicates/40":        "9db96afb758ac06f747e5b74f08405d1e1bc9f1136217eb4dd7d15aafdbed5a3",
	"duplicates/300":       "bc9665adbaf3b668a54cbd6f13be8b5f68537b4f5b7c2425d030867a3051186f",
	"unsorted":             "18e0f9156a30401e322cf43b5b432f908cd1c234815607eb54d9ae1c57018c50",
	"floats":               "d52689eedd61c29118c29b08578f4f8f0452f604562dd1a88144d052dc5220d7",
	"zero":                 "000abd14d1722c4cc98218e0d6b43e02af83c1a5a42041094da6fa0282170488",
	"empty-lists":          "e34e61ea026a08c224769799028ef7a29d83d8abf942718f3f617abfd6839a68",
	"json/edges":           "54e415ae7c773fb2095fe0028023573f0acd2d7c540afba3b86863e3d4ba06b4",
	"json/null-lists":      "9566df8de402ebdd46261d56bd0c11ce10cb15c8dcd7783ad5b09eaa17891105",
	"json/empty-lists":     "e34e61ea026a08c224769799028ef7a29d83d8abf942718f3f617abfd6839a68",
	"json/states-only":     "30b335521a8e238033ec594c67ac6b4c2327c013d29804beecdfd117443c8a7d",
	"json/missing-fields":  "543df3b73a9e2272bde9c6ed5f0905a4af6c94dc33009165ebec715ee1a71307",
	"json/duplicate-rates": "9da9270c6631df43807d866b69b5571d0c5ca6dbb3686fef783e1b5fd52af270",
	"json/case-folded":     "7dfa12e145bcb8855115ecf44f4f576a42510ed2ae392a7cbebfa33c25d83a75",
	"json/whitespace":      "cf96df02ad766064598b73a4cd487d52356ad267aa740bb1fd1fe1e9ef1b4c17",
	"json/impulses":        "f11a6d101ebec8a847795acd7423610373405fe253f45891097acce128053709",
	"json/escaped-key":     "0e1f21c395b4e710f3e083636407ae06f7cf9381996e3619621135f2374b9c46",
	"json/unknown-key":     "00bc4f9eab33df8664394cda3e8046afdc000286713d86099b5e950cf5bd031b",
}
