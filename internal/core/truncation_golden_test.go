package core

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"somrm/internal/poisson"
)

// TestTruncationWeightsGolden pins the Poisson side of a solve — the
// truncation point G of eq. 11, the bits of its error bound and a digest
// of the sweep weights PMF(0..G) with their non-zero window — to values
// recorded before the search and the weights shared one pmf table, over
// orders 0, 1, 3 and 12, three uniformization ratios d, qt from 0.001 to
// 40,000, three error targets and both bound forms (with and without
// impulses). Each line of testdata/truncation_golden.txt is
//
//	order d qt eps impulses G bound-bits first last weight-digest
//
// where the digest is FNV-1a over the little-endian bits of every weight.
func TestTruncationWeightsGolden(t *testing.T) {
	f, err := os.Open("testdata/truncation_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	cases := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 10 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		order := mustInt(t, fields[0])
		d, qt, eps := mustFloat(t, fields[1]), mustFloat(t, fields[2]), mustFloat(t, fields[3])
		impulses := fields[4] == "true"
		wantG, wantFirst, wantLast := mustInt(t, fields[5]), mustInt(t, fields[7]), mustInt(t, fields[8])
		wantBound, wantDigest := mustUint(t, fields[6]), mustUint(t, fields[9])
		tag := fmt.Sprintf("order=%d d=%g qt=%g eps=%g impulses=%v", order, d, qt, eps, impulses)

		var tab poisson.Table
		poissonTable(&tab, qt, order)
		g, bound, err := truncationPoint(&tab, order, d, qt, eps, impulses, defaultMaxG)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		w, first, last := tab.Window(g)
		if g != wantG || math.Float64bits(bound) != wantBound {
			t.Fatalf("%s: G=%d bound=%#x, want G=%d bound=%#x", tag, g, math.Float64bits(bound), wantG, wantBound)
		}
		if first != wantFirst || last != wantLast || weightDigest(w) != wantDigest {
			t.Fatalf("%s: weights window [%d,%d] digest %#x, want [%d,%d] %#x", tag, first, last, weightDigest(w), wantFirst, wantLast, wantDigest)
		}
		cases++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cases != 4*3*7*3*2 {
		t.Fatalf("%d golden cases, want %d", cases, 4*3*7*3*2)
	}
}

// truncationPointScan is the eq. 11 search's specification: the first g
// from minG up (2·order with impulses, else 0) whose bound — the maximum
// over every order — lies below eps, and that bound; ok is false when no
// g up to maxG does.
func truncationPointScan(tab *poisson.Table, order int, d, qt, eps float64, impulses bool, maxG int) (g int, bound float64, ok bool) {
	logEps := math.Log(eps)
	for g = 0; g <= maxG; g++ {
		if impulses && g < 2*order {
			continue
		}
		worst := math.Inf(-1)
		for j := 0; j <= order; j++ {
			var f float64
			if impulses {
				f = float64(j) * (math.Log(4*d) + math.Log(qt))
			} else {
				lg, _ := math.Lgamma(float64(j) + 1)
				f = math.Ln2 + float64(j)*math.Log(d) + lg + float64(j)*math.Log(qt)
			}
			worst = max(worst, f+tab.LogTailProb(g-j))
		}
		if worst < logEps {
			return g, math.Exp(worst), true
		}
	}
	return 0, 0, false
}

// TestTruncationPointMatchesLinearScan checks the bracketed search
// against the linear scan over random (order ≤ 12, d, qt log-uniform in
// [1e-3, 4e4], eps, impulses) cases, plus the paper's qt = 40,000, the
// Table 1 model's order-12 shapes and two cases whose G is the search's
// floor: the same G and the same bound bits. Each case also runs with MaxG = G, which must succeed with the
// same result, and with MaxG = G − 1, which must fail with
// ErrBadArgument (unless G is the search's floor, where nothing smaller
// can be asked for).
func TestTruncationPointMatchesLinearScan(t *testing.T) {
	type tcase struct {
		order      int
		d, qt, eps float64
		impulses   bool
		atFloor    bool // G must be the search's floor
	}
	cases := []tcase{
		{3, 0.25, 40_000, 1e-9, false, false},
		{12, 0.25, 12.8, 1e-9, false, false},
		{12, 0.25, 38.4, 1e-9, false, false},
		{12, 0.25, 128, 1e-9, false, false},
		{12, 1.5, 40_000, 1e-12, true, false},
		// G at the search's floor: 0, and 2·order with impulses.
		{0, 1, 1e-10, 1e-6, false, true},
		{3, 0.25, 1e-3, 1e-6, true, true},
	}
	rng := rand.New(rand.NewSource(2004))
	for range 300 {
		cases = append(cases, tcase{
			order:    rng.Intn(13),
			d:        math.Exp(-6 + 7*rng.Float64()),
			qt:       math.Exp(math.Log(1e-3) + rng.Float64()*math.Log(4e7)),
			eps:      math.Pow(10, -2-12*rng.Float64()),
			impulses: rng.Intn(4) == 0,
		})
	}
	for _, c := range cases {
		tag := fmt.Sprintf("order=%d d=%g qt=%g eps=%g impulses=%v", c.order, c.d, c.qt, c.eps, c.impulses)
		var scanTab poisson.Table
		poissonTable(&scanTab, c.qt, c.order)
		wantG, wantBound, ok := truncationPointScan(&scanTab, c.order, c.d, c.qt, c.eps, c.impulses, defaultMaxG)
		if !ok {
			t.Fatalf("%s: linear scan found no G", tag)
		}
		search := func(maxG int) (int, float64, error) {
			var tab poisson.Table
			poissonTable(&tab, c.qt, c.order)
			return truncationPoint(&tab, c.order, c.d, c.qt, c.eps, c.impulses, maxG)
		}
		for _, maxG := range []int{defaultMaxG, wantG} {
			g, bound, err := search(maxG)
			if err != nil {
				t.Fatalf("%s MaxG=%d: %v", tag, maxG, err)
			}
			if g != wantG || math.Float64bits(bound) != math.Float64bits(wantBound) {
				t.Fatalf("%s MaxG=%d: G=%d bound=%#x, linear scan G=%d bound=%#x",
					tag, maxG, g, math.Float64bits(bound), wantG, math.Float64bits(wantBound))
			}
		}
		floor := 0
		if c.impulses {
			floor = 2 * c.order
		}
		if c.atFloor && wantG != floor {
			t.Fatalf("%s: G=%d, want the floor %d", tag, wantG, floor)
		}
		if wantG > floor {
			if _, _, err := search(wantG - 1); !errors.Is(err, ErrBadArgument) {
				t.Fatalf("%s MaxG=G-1=%d: err %v, want ErrBadArgument", tag, wantG-1, err)
			}
		}
	}
}

func weightDigest(w []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range w {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func mustInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
