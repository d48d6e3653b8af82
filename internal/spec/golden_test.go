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
// hashes were computed with the json.Marshal-based canonical form, so
// this test is the proof that result-cache keys, ring placement and
// journal spec_hash values survive any rewrite of the canonical writer
// or the decoder.
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
		if _, err := c.m.Canonical(); err == nil || err.Error() != c.want {
			t.Errorf("Canonical error %v, want %q", err, c.want)
		}
		if _, err := c.m.Hash(); err == nil || err.Error() != c.want {
			t.Errorf("Hash error %v, want %q", err, c.want)
		}
	}
}

var goldenHashes = map[string]string{
	"generate/1":           "fbb49a18f6ad7587482b105e8dc49ac38950327105fc330293ea6345588a59bd",
	"birthdeath/1":         "adf8b6bfbc29c01c49564b699adab8b60b5dfb8ede98c1657be5b0a483b4447a",
	"component/1":          "6eb37cd0dcebb85ccf4906bfd56299374b6b4e9f188586b74e6d216a084c02d7",
	"generate/2":           "138c8656f04f44b7dd72f221ad5f3b38af15078a51b5b61f486be9926f0a60aa",
	"birthdeath/2":         "56c4db7dfbcb12f46ca82c4710b3ab98120146e3559f1108a50e9599fd8abc81",
	"component/2":          "965221932b2b4041c63810b7ad0fb7a3551b17a553fc0f55349be6839b010e0c",
	"generate/3":           "0f9c93715454736cb46c4003c628f312a84f0e277f1ffc3d5ac28eb8696c8b31",
	"birthdeath/3":         "3529fef10e88fb00ace40aa9b8c453207ecb321fd4010fc0dfd02e572ecad4ae",
	"component/3":          "a28634e5edd63612185fa01d30c187bd17772c515c3611dbc0b39a003f16b09f",
	"generate/4":           "9a2cde27fd7879d4599cdede1240283c117fd33fbc2520c2671b626ebc1e450f",
	"birthdeath/4":         "bc636f4c48efc1381d3ca8a4d506f2f4df5a24fd65463c426c713e0069bfa07d",
	"component/4":          "5e687e9ecd555dcbac9ba1dabb09c6beb7858e6ce96dadb11ef473b233f91851",
	"generate/5":           "b090240691a397e050d629b1da03f18c54c3100d4ff6188726033e9a2a2819ac",
	"birthdeath/5":         "5c6000170b7fbb0c9c7afc3bbd3e70fcc153ef324d2ce7e621c7b9b1312ee4de",
	"component/5":          "0daeffa6ad1d54cb5d88a5ae68d8b162e8f07b1e8af8e5010b229fa9691f8d75",
	"generate/6":           "82896aaffdc907871f59cbaa87fa3ab36d57474c0609badf1ae845b93322481b",
	"birthdeath/6":         "2d58faf7573d6d8b842ead983fd7eda5e5e0a9e62f9069247e4a53b4068c596f",
	"component/6":          "bfa710cd94aac86eb3322ec3a2c595aa20b38e94ccde10b407713d1fff2cb092",
	"generate/7":           "8e3187415fa0f454fbffb8a6c1608ec5d2de96b5dd085da3f4b8a4ff21e71e3b",
	"birthdeath/7":         "83b4875d9de23ffe9ab4a0094f3de1c8e1f2212c27aa32e55a3ab3a9bb8376b0",
	"component/7":          "00ac1225c03d832fa144eeda960f1e4c2ecc088afedbb92d841d37ae33006c45",
	"generate/8":           "b249cd986bfc5af16ef1c0b5bd34da39279f4ef5fd587c67d6088a2effdc8dfb",
	"birthdeath/8":         "a6cae5cc56a0cbfaf50e0b90e9518377ba71ac3ad64e91680f6070389dd000e3",
	"component/8":          "c1d51693518d5f005589dc2d8f10d1e3f69560d105385a52a43eba8a73f87e6f",
	"generate/9":           "b8783cc08e0ecdcb76d96ae367f3d320c3673e3e2133c78e4116cc4906d8dae2",
	"birthdeath/9":         "76978e0affbb5a30816e6f111721b42e5b16c1348c69d387a3095f7ea3c64c96",
	"component/9":          "f184430b5fb240b8305081fd43fc635efd2cacc2b5725604f8269448e8bc82c8",
	"generate/10":          "58885d9c44d3362711688619d66ee5ddd7dce2956799b9b12054840300ca8ed3",
	"birthdeath/10":        "05c2e940d7e98a2d89e2f621bb846960eb973465cb269cd5b49d5fe5160de734",
	"component/10":         "1a2efe0e02c39d9341dc58c4572f86fd21a2b505c6301745c8ad0a2c436631a7",
	"generate/11":          "f6eef6ea41216ac3277900c127e94409c268bdd3fedf62dac1d3f46cf5f3c00d",
	"birthdeath/11":        "036d5c3efcb0d336927f6ac5d4b7dcc347d438a508a32bf0f715862ba39143a0",
	"component/11":         "ae332db779e6cfe029dd61f9d97404953e130012f65f0e72c6bae4d30a30a969",
	"generate/12":          "37eb0f6dd7432339fb009e8933b3aa615ba7dcef298331e10d25d04b446a2fe1",
	"birthdeath/12":        "d7da0551faa05b5420f3e088dd398c1924f0a6ba200c97466b1c73edc21d39cb",
	"component/12":         "97e7833fd7a99bdaa4cab40098ffda3c7a6360c06e7175d6b2955214d8e35659",
	"duplicates/5":         "7a651fb8b6181b357ac024ebe7a5fec64a80d6680489fcc4c9dd7990a785ace7",
	"duplicates/13":        "59b9adeaa1b7cfb3988a206006c50f33984390e29755df3b082395d772888ed4",
	"duplicates/40":        "afd55f7b765abca3e4a43436391c0c74972f387b9defa6e22677bd30c9ec82b2",
	"duplicates/300":       "cbc1620a423aa08aad9026e3e75ce11a1fc301c7d7fd3bb7e93d74b77687ee20",
	"unsorted":             "2adcac0bc96352f7a2c0fb99abf02f75d7a24eb19fafb62d7a885e59b9e7980e",
	"floats":               "d0f61ac1ae3195108a4f2045120c9c1ce9e23a114a415c5f49a97c2e4ef4b666",
	"zero":                 "bcec32cd31dfbe1c91cdcd7e135052a3d95700c6ad102ba03010a28c19d4a245",
	"empty-lists":          "766e5226bc0f5a8aab6f0f6d34513d33657aaca9acca08f823ee0404dc58d93a",
	"json/edges":           "26845c300f4b4fae5edbd2494e1608277f9574523072639a8618139cbbb436c4",
	"json/null-lists":      "bc9add71aa8a40f193015b681f8b9180575c35663deec2e0841470dc2363f44f",
	"json/empty-lists":     "766e5226bc0f5a8aab6f0f6d34513d33657aaca9acca08f823ee0404dc58d93a",
	"json/states-only":     "0c4b309f7d57be29651bff936cd62ecb9cb8970c83b940c609dc935951d2e0e5",
	"json/missing-fields":  "24cb124d25e52eab66d6d32b5c3d2aca6623384178d8913fad364536b3148634",
	"json/duplicate-rates": "63c8cf39876ff5537706609db5a365e62997023628946a61c07fa430bb7b9e60",
	"json/case-folded":     "ebdb2c77d667e4834f55431ffa76d0f9348ae5a7a7d6ab59e54fd3538fa94386",
	"json/whitespace":      "6786fd22244fc7d3f4b95d761a97db93ab67a37a912ed6adaa8f719d76dbf349",
	"json/impulses":        "4b52f57359c75149b1027aa1b323e8f64ed7f3bbb4c92e61d6f655e99fce7230",
	"json/escaped-key":     "014da8b34b1b83637a6e9ab16e83e6661ed358c10beb4663afac1ae32fb78434",
	"json/unknown-key":     "0a5e525ad9e34eb911a0a2dd912b52ecd2e6605afea33bada756537ea136b310",
}
