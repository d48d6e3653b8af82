package sparse

import (
	"context"
	"fmt"
	"math"
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

func TestQBDBlockDetection(t *testing.T) {
	t.Run("tridiagonal", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		m := bandedFixture(t, rng, 12, 1, 1)
		if b := m.QBDBlock(); b != 1 {
			t.Fatalf("QBDBlock() = %d, want 1 for a tridiagonal matrix", b)
		}
	})
	t.Run("forced-block-4", func(t *testing.T) {
		// Entry (0,7) has reach 7, so minB = (7+2)/2 = 4; the divisors of
		// 12 at or above that are 4, 6, 12, and 4 already keeps (0,7)
		// within adjacent blocks.
		bld := NewBuilder(12, 12)
		for i := 0; i < 12; i++ {
			if err := bld.Add(i, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := bld.Add(0, 7, 2); err != nil {
			t.Fatal(err)
		}
		if b := bld.Build().QBDBlock(); b != 4 {
			t.Fatalf("QBDBlock() = %d, want 4", b)
		}
	})
	t.Run("forced-block-6", func(t *testing.T) {
		// Entry (11,0) rules out b = 4 (levels 2 and 0 are not adjacent)
		// and its reach of 11 prunes everything below (11+2)/2 = 6.
		bld := NewBuilder(12, 12)
		for i := 0; i < 12; i++ {
			if err := bld.Add(i, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := bld.Add(11, 0, 2); err != nil {
			t.Fatal(err)
		}
		if b := bld.Build().QBDBlock(); b != 6 {
			t.Fatalf("QBDBlock() = %d, want 6", b)
		}
	})
	t.Run("no-valid-block", func(t *testing.T) {
		// 257 is prime and above maxForcedQBDBlock, so once entry (0,256)
		// rules out small blocks no divisor survives the cap.
		bld := NewBuilder(257, 257)
		for i := 0; i < 257; i++ {
			if err := bld.Add(i, i, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := bld.Add(0, 256, 2); err != nil {
			t.Fatal(err)
		}
		m := bld.Build()
		if b := m.QBDBlock(); b != 0 {
			t.Fatalf("QBDBlock() = %d, want 0", b)
		}
		if rep := m.QBDRep(); rep != nil {
			t.Fatal("QBDRep() should be nil when no block size is valid")
		}
	})
	t.Run("non-square", func(t *testing.T) {
		bld := NewBuilder(3, 4)
		if err := bld.Add(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if b := bld.Build().QBDBlock(); b != 0 {
			t.Fatalf("QBDBlock() = %d, want 0 for a non-square matrix", b)
		}
	})
	t.Run("cached", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		m := qbdFixture(t, rng, 4, 3)
		rep := m.QBDRep()
		if rep == nil {
			t.Fatal("QBDRep() = nil")
		}
		if again := m.QBDRep(); again != rep {
			t.Fatal("QBDRep not cached")
		}
	})
}

func TestQBDEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	// Fully dense blocks make the 3b window pay: auto and forced agree.
	bld0 := NewBuilder(32, 32)
	for i := 0; i < 32; i++ {
		blk := i / 4
		lo, hi := (blk-1)*4, (blk+2)*4
		if lo < 0 {
			lo = 0
		}
		if hi > 32 {
			hi = 32
		}
		for j := lo; j < hi; j++ {
			if err := bld0.Add(i, j, rng.Float64()+0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	dense := bld0.Build()
	if b := dense.QBDBlock(); b != 4 {
		t.Fatalf("QBDBlock() = %d, want 4", b)
	}
	if !dense.qbdEligible(false) {
		t.Error("dense block fixture should be auto-eligible")
	}
	if !dense.qbdEligible(true) {
		t.Error("dense block fixture should be forced-eligible")
	}

	// A wide but tiny matrix: block 6 exceeds nothing, but if the blocks
	// are nearly empty the 3b window fails the auto cost test while the
	// small-matrix escape hatch keeps the forced policy open.
	bld := NewBuilder(12, 12)
	for i := 0; i < 12; i++ {
		if err := bld.Add(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := bld.Add(11, 0, 2); err != nil {
		t.Fatal(err)
	}
	sparse := bld.Build()
	if sparse.qbdEligible(false) {
		t.Error("sparse 12x12 with block 6 should fail the auto cost test")
	}
	if !sparse.qbdEligible(true) {
		t.Error("small matrices should stay forced-eligible via the cell cap")
	}

	// Large and sparse: the window cost dwarfs the nnz and the matrix is
	// too big for the escape hatch, so even forced declines.
	const n, blk = 1024, 32
	big := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := big.Add(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Add(0, 2*blk-1, 2); err != nil { // reach 63 -> minB 32
		t.Fatal(err)
	}
	huge := big.Build()
	if b := huge.QBDBlock(); b != blk {
		t.Fatalf("QBDBlock() = %d, want %d", b, blk)
	}
	if huge.qbdEligible(false) {
		t.Error("1024-state block-32 matrix should fail the auto policy")
	}
	if huge.qbdEligible(true) {
		t.Error("1024-state near-diagonal matrix should fail even the forced policy")
	}
}

// TestQBDMatVecBitwise checks the QBD window kernel against CSR MatVec
// bit for bit, including the boundary levels whose windows clip.
func TestQBDMatVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		levels := 1 + rng.Intn(6)
		b := 1 + rng.Intn(5)
		m := qbdFixture(t, rng, levels, b)
		rep := m.QBDRep()
		if rep == nil {
			t.Fatalf("trial %d: QBDRep() = nil", trial)
		}
		n := m.rows
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		if err := m.MatVec(x, want); err != nil {
			t.Fatal(err)
		}
		rep.MatVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d b=%d): MatVec[%d] = %x, want %x",
					trial, n, rep.Block(), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}

		// Partial ranges must only touch their rows.
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		partial := make([]float64, n)
		for i := range partial {
			partial[i] = math.NaN()
		}
		rep.matVecRange(lo, hi, x, partial)
		for i := lo; i < hi; i++ {
			if math.Float64bits(partial[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: matVecRange[%d] = %x, want %x",
					trial, i, math.Float64bits(partial[i]), math.Float64bits(want[i]))
			}
		}
		for i := 0; i < n; i++ {
			if (i < lo || i >= hi) && !math.IsNaN(partial[i]) {
				t.Fatalf("trial %d: matVecRange wrote outside [%d,%d) at %d", trial, lo, hi, i)
			}
		}
	}
}

// FuzzQBDRoundTrip drives CSR -> QBD -> CSR from fuzzed level/block
// seeds: the round trip must reproduce the source structure and values
// exactly, and the QBD MatVec must match CSR bit for bit.
func FuzzQBDRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(9), uint8(2))
	f.Add(int64(4), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, levelsRaw, bRaw uint8) {
		levels := 1 + int(levelsRaw)%12
		b := 1 + int(bRaw)%8
		rng := rand.New(rand.NewSource(seed))
		m := qbdFixture(t, rng, levels, b)
		rep := m.QBDRep()
		if rep == nil {
			// n = levels*b <= 96, so the degenerate single level always
			// qualifies; nil means the detector regressed.
			t.Fatalf("QBDRep() = nil for n=%d", m.rows)
		}
		back := rep.ToCSR()
		if back.rows != m.rows || back.cols != m.cols {
			t.Fatalf("round trip shape %dx%d, want %dx%d", back.rows, back.cols, m.rows, m.cols)
		}
		for i := 0; i <= m.rows; i++ {
			if back.rowPtr[i] != m.rowPtr[i] {
				t.Fatalf("rowPtr[%d] = %d, want %d", i, back.rowPtr[i], m.rowPtr[i])
			}
		}
		for p := range m.colIdx {
			if back.colIdx[p] != m.colIdx[p] {
				t.Fatalf("colIdx[%d] = %d, want %d", p, back.colIdx[p], m.colIdx[p])
			}
			if math.Float64bits(back.val[p]) != math.Float64bits(m.val[p]) {
				t.Fatalf("val[%d] = %x, want %x", p, math.Float64bits(back.val[p]), math.Float64bits(m.val[p]))
			}
		}

		n := m.rows
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		if err := m.MatVec(x, want); err != nil {
			t.Fatal(err)
		}
		rep.MatVec(x, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("MatVec[%d] = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestSweepQBDMatchesReference is the QBD kernel's bitwise gate: forced
// qbd sweeps over block-tridiagonal families must reproduce the serial
// reference bit for bit at every worker count, including the order-3
// interleaved fast path with dirty lent scratch.
func TestSweepQBDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		levels := 2 + rng.Intn(5)
		b := 2 + rng.Intn(4)
		order := rng.Intn(5)
		if trial%2 == 1 {
			order = 3 // the interleaved QBD fast path
		}
		a := qbdFixture(t, rng, levels, b)
		n := a.rows
		diag1, diag2 := randDiags(rng, n)
		gMax := 1 + rng.Intn(30)
		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}

		ref, err := NewSweep(a, diag1, diag2, nil, order, 1)
		if err != nil {
			t.Fatal(err)
		}
		refCur, refNext, refPlans := newRunState(ref, weights, firsts, lasts)
		if _, err := ref.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 32); err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 5} {
			for _, dirtyScratch := range []bool{false, true} {
				fs, err := NewSweepWithFormat(a, diag1, diag2, nil, order, workers, FormatQBD)
				if err != nil {
					t.Fatal(err)
				}
				if fs.Format() != FormatQBD {
					t.Fatalf("trial %d: forced qbd resolved to %q (n=%d b=%d)", trial, fs.Format(), n, b)
				}
				if dirtyScratch && !lendDirtyScratch(fs) {
					continue
				}
				cur, next, plans := newRunState(fs, weights, firsts, lasts)
				if _, err := fs.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, workers, err)
				}
				requireAccBitwise(t, fmt.Sprintf("trial %d workers %d dirty=%v", trial, workers, dirtyScratch), plans, refPlans, order, n)
			}
		}
	}
}
