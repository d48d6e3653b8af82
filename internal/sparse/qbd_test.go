package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// qbdFixture builds a random block-tridiagonal matrix with the given
// level count and block size: every stored entry couples a level only to
// itself or an adjacent level, all values strictly positive so the
// builder never merges an entry away.
func qbdFixture(t testing.TB, rng *rand.Rand, levels, b int) *CSR {
	t.Helper()
	n := levels * b
	bld := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := bld.Add(i, i, rng.Float64()+0.1); err != nil {
			t.Fatal(err)
		}
		blk := i / b
		lo, hi := (blk-1)*b, (blk+2)*b
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		for j := lo; j < hi; j++ {
			if j != i && rng.Float64() < 0.4 {
				if err := bld.Add(i, j, rng.Float64()+0.05); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return bld.Build()
}

// TestSweepQBDMatchesReference is the bitwise gate for block-tridiagonal
// (QBD) matrices, which the automatic policy streams as compact CSR:
// auto sweeps over random QBD families must resolve to csr32 and
// reproduce the serial reference bit for bit at every worker count,
// unblocked and with blocking forced over multi-block tiles, including
// the interleaved CSR32 kernel with dirty lent scratch.
func TestSweepQBDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		levels := 2 + rng.Intn(5)
		b := 2 + rng.Intn(4)
		order := rng.Intn(5)
		if trial%2 == 1 {
			order = 3 // the interleaved fast path
		}
		a := qbdFixture(t, rng, levels, b)
		n := a.rows
		diag1, diag2 := randDiags(rng, n)
		gMax := 1 + rng.Intn(30)
		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}

		_, refAcc := runReference(t, a, diag1, diag2, nil, order, gMax, weights, firsts, lasts)

		for _, workers := range []int{1, 2, 5} {
			for _, tblock := range []int{1, 4} {
				for _, dirtyScratch := range []bool{false, true} {
					fs, err := newTestSweep(a, diag1, diag2, nil, order, workers, FormatAuto)
					if err != nil {
						t.Fatal(err)
					}
					if fs.Format() != FormatCSR32 {
						t.Fatalf("trial %d: auto resolved to %q (n=%d b=%d), want csr32", trial, fs.Format(), n, b)
					}
					fs.SetTemporalBlock(tblock)
					fs.SetSweepTile(4)
					if dirtyScratch {
						lendDirtyScratch(fs)
					}
					cur, plans := newRunState(fs, weights, firsts, lasts)
					if _, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
						t.Fatalf("trial %d workers %d: %v", trial, workers, err)
					}
					requireAccBitwise(t, fmt.Sprintf("trial %d workers %d T=%d dirty=%v", trial, workers, tblock, dirtyScratch), fs, plans, refAcc)
				}
			}
		}
	}
}
