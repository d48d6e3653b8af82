package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
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
