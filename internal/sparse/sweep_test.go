package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// randomSweepFixture builds a random n-state sweep family: a sparse
// square matrix with a ring backbone (so no row is empty), diagonals of
// mixed sign, and optionally order impulse matrices.
func randomSweepFixture(t *testing.T, rng *rand.Rand, n, order int, impulses bool) *Sweep {
	t.Helper()
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := b.Add(i, (i+1)%n, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		for e := rng.Intn(4); e > 0; e-- {
			if err := b.Add(i, rng.Intn(n), rng.Float64()-0.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := b.Build()
	diag1, diag2 := randDiags(rng, n)
	var imp []*CSR
	if impulses {
		for m := 0; m < order; m++ {
			ib := NewBuilder(n, n)
			for e := 0; e < n/2+1; e++ {
				if err := ib.Add(rng.Intn(n), rng.Intn(n), rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			imp = append(imp, ib.Build())
		}
	}
	s, err := newTestSweep(a, diag1, diag2, imp, order, 1, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newRunState allocates the standard initial state (cur[0] = 1) and one
// plan per weight vector, each with a fresh accumulator block in the
// sweep's packed layout.
func newRunState(s *Sweep, weights [][]float64, firsts, lasts []int) (cur [][]float64, plans []SweepPlan) {
	cur = make([][]float64, s.order+1)
	for j := range cur {
		cur[j] = make([]float64, s.rows)
	}
	for i := range cur[0] {
		cur[0][i] = 1
	}
	for pi, w := range weights {
		plans = append(plans, SweepPlan{First: firsts[pi], Last: lasts[pi], Weight: w, Acc: make([]float64, s.AccWords())})
	}
	return cur, plans
}

// unpackPlans returns the plans' accumulators as order+1 vectors of
// Rows() entries each, unpacked from the layout of s.
func unpackPlans(s *Sweep, plans []SweepPlan) [][][]float64 {
	out := make([][][]float64, len(plans))
	for pi, p := range plans {
		out[pi] = make([][]float64, s.order+1)
		for j := range out[pi] {
			out[pi][j] = make([]float64, s.rows)
		}
		s.UnpackAcc(out[pi], p.Acc)
	}
	return out
}

// newTestSweep builds the sweep of matrix a, stored as format resolves
// for it (see newStorage), for a team of workers; the reference sweep
// (workers < 1) streams compact CSR, as prepared solves give it.
func newTestSweep(a *CSR, diag1, diag2 []float64, imp []*CSR, order, workers int, format MatrixFormat) (*Sweep, error) {
	if workers < 1 {
		format = FormatCSR
	}
	st, err := newStorage(a, 1, false, format, len(imp) > 0)
	if err != nil {
		return nil, err
	}
	return NewSweep(st, diag1, diag2, imp, order, workers)
}

// newReference builds the serial reference sweep over a matrix family.
func newReference(t testing.TB, a *CSR, diag1, diag2 []float64, imp []*CSR, order int) *Sweep {
	t.Helper()
	s, err := newTestSweep(a, diag1, diag2, imp, order, 0, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runReference runs the serial reference sweep over a matrix family for
// gMax iterations from the standard initial state, and returns its
// product count and the plans' unpacked accumulators.
func runReference(t testing.TB, a *CSR, diag1, diag2 []float64, imp []*CSR, order, gMax int, weights [][]float64, firsts, lasts []int) (int64, [][][]float64) {
	t.Helper()
	ref := newReference(t, a, diag1, diag2, imp, order)
	cur, plans := newRunState(ref, weights, firsts, lasts)
	mv, err := ref.RunFrom(context.Background(), 1, gMax, cur, plans, 32)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return mv, unpackPlans(ref, plans)
}

// randDiags draws the diagonal reward terms of a sweep family: diag1 of
// mixed sign, diag2 positive.
func randDiags(rng *rand.Rand, n int) (diag1, diag2 []float64) {
	diag1 = make([]float64, n)
	diag2 = make([]float64, n)
	for i := range diag1 {
		diag1[i] = rng.Float64()*2 - 1
		diag2[i] = rng.Float64()
	}
	return diag1, diag2
}

// randWeights draws gMax+1 non-zero Poisson-style weights.
func randWeights(rng *rand.Rand, gMax int) []float64 {
	w := make([]float64, gMax+1)
	for k := range w {
		w[k] = rng.Float64()
	}
	return w
}

// requireAccBitwise fails unless every plan's accumulators in got, in the
// packed layout of s, match want bit for bit.
func requireAccBitwise(t *testing.T, tag string, s *Sweep, got []SweepPlan, want [][][]float64) {
	t.Helper()
	for pi, acc := range unpackPlans(s, got) {
		for j, a := range acc {
			for i, g := range a {
				if w := want[pi][j][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: plan %d acc[%d][%d] = %x, reference %x",
						tag, pi, j, i, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}

// lendDirtyScratch lends s a NaN-filled packed scratch buffer, which
// RunFrom must fully overwrite or zero.
func lendDirtyScratch(s *Sweep) {
	scratch := make([]float64, s.ScratchWords())
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	s.SetScratch(scratch)
}

// sweepOrders are the moment orders the engine-level gates cover: every
// interleaved width up to two four-moment groups, and order 12, the order
// of every bounds request (four groups).
var sweepOrders = []int{0, 1, 2, 3, 4, 5, 12}

// TestSweepFusedMatchesReference is the engine-level bitwise gate: for
// random matrix families at every order of sweepOrders, with and without
// impulses (twice each), and every worker count, the fused kernel must
// reproduce the serial reference sweep bit for bit — accumulators and
// product counts alike.
func TestSweepFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4*len(sweepOrders); trial++ {
		n := 3 + rng.Intn(60)
		order := sweepOrders[trial/2%len(sweepOrders)]
		impulses := trial%2 == 1
		gMax := 1 + rng.Intn(40)
		s := randomSweepFixture(t, rng, n, order, impulses)

		nPlans := 1 + rng.Intn(3)
		weights := make([][]float64, nPlans)
		firsts := make([]int, nPlans)
		lasts := make([]int, nPlans)
		for pi := range weights {
			w := make([]float64, gMax+1)
			for k := range w {
				if rng.Float64() < 0.8 {
					w[k] = rng.Float64()
				}
			}
			weights[pi] = w
			firsts[pi] = rng.Intn(gMax + 1)
			lasts[pi] = firsts[pi] + rng.Intn(gMax+1-firsts[pi])
		}

		refMV, refAcc := runReference(t, s.csr, s.diag1, s.diag2, s.imp, order, gMax, weights, firsts, lasts)

		for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0) + 2} {
			fs, err := newTestSweep(s.csr, s.diag1, s.diag2, s.imp, order, workers, FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			cur, plans := newRunState(fs, weights, firsts, lasts)
			mv, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 32)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if mv != refMV {
				t.Fatalf("trial %d workers %d: matvecs %d != reference %d", trial, workers, mv, refMV)
			}
			requireAccBitwise(t, fmt.Sprintf("trial %d workers %d", trial, workers), fs, plans, refAcc)
		}
	}
}

// bandedSweepFixture builds a sweep family over a genuinely banded matrix
// (the existing random fixture's ring backbone always defeats the band
// detector), so the band kernels get exercised.
func bandedSweepFixture(t *testing.T, rng *rand.Rand, n, lo, hi, order int) (*CSR, []float64, []float64) {
	t.Helper()
	a := bandedFixture(t, rng, n, lo, hi)
	diag1, diag2 := randDiags(rng, n)
	return a, diag1, diag2
}

// TestSweepFormatsMatchReference is the storage-engine bitwise gate: for
// banded matrix families, every storage format (auto, compact, band) at
// every worker count must reproduce the serial reference sweep bit for
// bit — including the interleaved CSR32 kernels with both fresh and
// dirty lent scratch.
func TestSweepFormatsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	formats := []MatrixFormat{FormatAuto, FormatCSR, FormatBand}
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(80)
		lo := rng.Intn(4)
		hi := rng.Intn(4)
		// Odd trials pin the paper shape: order 3, tridiagonal — the
		// interleaved band fast path.
		order := rng.Intn(5)
		if trial%2 == 1 {
			order, lo, hi = 3, 1, 1
		}
		gMax := 1 + rng.Intn(30)
		a, diag1, diag2 := bandedSweepFixture(t, rng, n, lo, hi, order)

		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}

		_, refAcc := runReference(t, a, diag1, diag2, nil, order, gMax, weights, firsts, lasts)

		for _, format := range formats {
			for _, workers := range []int{1, 3} {
				for _, dirtyScratch := range []bool{false, true} {
					fs, err := newTestSweep(a, diag1, diag2, nil, order, workers, format)
					if err != nil {
						t.Fatal(err)
					}
					if blo, bhi := a.Bandwidth(); format == FormatBand && (fs.Format() == FormatBand) != (blo <= 1 && bhi <= 1) {
						t.Fatalf("trial %d: forced band resolved to %q (bandwidth lo=%d hi=%d n=%d)", trial, fs.Format(), blo, bhi, n)
					}
					if dirtyScratch {
						lendDirtyScratch(fs)
					}
					cur, plans := newRunState(fs, weights, firsts, lasts)
					if _, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
						t.Fatalf("trial %d format %q workers %d: %v", trial, format, workers, err)
					}
					requireAccBitwise(t, fmt.Sprintf("trial %d format %q (resolved %q) workers %d dirty=%v",
						trial, format, fs.Format(), workers, dirtyScratch), fs, plans, refAcc)
				}
			}
		}
	}
}

// TestSweepFormatResolution pins what a sweep resolves for
// characteristic shapes — impulse-free tridiagonal matrices stream the
// band, everything else the compact CSR, impulse sweeps and the
// reference sweep included — and the packed buffers each runs on, whose
// layout every accumulator block shares: at every order of sweepOrders,
// on the row-lane, interleaved and plain-plane layouts, PackAcc must zero
// the padding of a canary-filled block and UnpackAcc must return the
// packed vectors bit for bit, with junk in every cell that holds no
// moment (padding never reaches the output).
func TestSweepFormatResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tri, d1, d2 := bandedSweepFixture(t, rng, 300, 1, 1, 3)
	s, err := newTestSweep(tri, d1, d2, nil, 3, 1, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if s.Format() != FormatBand {
		t.Errorf("tridiagonal auto format = %q, want band", s.Format())
	}
	// Four row-lane planes per buffer, each 300 rows + 2 padding cells
	// rounded to 304 words and spread to 320 (2,560 bytes: no two of the
	// eight plane starts within 256 bytes of each other mod 4096).
	if s.AccWords() != 4*320 || s.ScratchWords() != 2*4*320 {
		t.Errorf("AccWords, ScratchWords = %d, %d, want %d, %d", s.AccWords(), s.ScratchWords(), 4*320, 2*4*320)
	}

	ring := randomSweepFixture(t, rng, 50, 3, false)
	if ring.Format() != FormatCSR32 {
		t.Errorf("ring auto format = %q, want csr32", ring.Format())
	}

	// CSR32 sweeps run on two interleaved buffers of P words per state,
	// order+1 rounded up to whole four-moment groups, impulse sweeps
	// included; the reference sweep on plain planes of the compact CSR
	// whatever the requested format.
	for _, c := range []struct{ order, p int }{{0, 4}, {2, 4}, {3, 4}, {4, 8}, {7, 8}, {12, 16}} {
		cs, err := newTestSweep(tri, d1, d2, nil, c.order, 1, FormatCSR)
		if err != nil {
			t.Fatal(err)
		}
		if cs.AccWords() != c.p*300 || cs.ScratchWords() != 2*c.p*300 {
			t.Errorf("order-%d csr32 AccWords, ScratchWords = %d, %d, want %d, %d", c.order, cs.AccWords(), cs.ScratchWords(), c.p*300, 2*c.p*300)
		}
		impl := randomSweepFixture(t, rng, 30, c.order, true)
		if impl.ScratchWords() != 2*c.p*30 {
			t.Errorf("order-%d impulse ScratchWords = %d, want %d", c.order, impl.ScratchWords(), 2*c.p*30)
		}
		rs, err := newTestSweep(tri, d1, d2, nil, c.order, 0, FormatBand)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Format() != FormatCSR32 || rs.AccWords() != (c.order+1)*300 {
			t.Errorf("order-%d reference: format %q, AccWords %d, want csr32, %d", c.order, rs.Format(), rs.AccWords(), (c.order+1)*300)
		}
	}

	// An impulse sweep over a tridiagonal matrix resolves to compact CSR
	// under every format.
	for _, f := range []MatrixFormat{FormatAuto, FormatBand, FormatCSR} {
		is, err := newTestSweep(tri, d1, d2, []*CSR{tri, tri}, 2, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		if is.Format() != FormatCSR32 {
			t.Errorf("impulse sweep under %q resolved to %q, want csr32", f, is.Format())
		}
	}
	// A band storage serves neither an impulse sweep nor the reference.
	band, err := newStorage(tri, 1, false, FormatBand, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSweep(band, d1, d2, []*CSR{tri, tri}, 2, 1); !errors.Is(err, ErrUnsupportedFormat) {
		t.Errorf("impulse sweep over a band: err = %v, want ErrUnsupportedFormat", err)
	}
	if _, err := NewSweep(band, d1, d2, nil, 2, 0); !errors.Is(err, ErrUnsupportedFormat) {
		t.Errorf("reference sweep over a band: err = %v, want ErrUnsupportedFormat", err)
	}

	// Pack/unpack round trips. moment reports the block cell of moment j
	// of row i in the layout of s.
	moment := func(s *Sweep, j, i int) int {
		if st, off := s.planes(); st > 0 {
			return j*st + off + i
		}
		return i*s.lanes + j
	}
	for _, order := range sweepOrders {
		for _, c := range []struct {
			format  MatrixFormat
			workers int
		}{{FormatBand, 1}, {FormatCSR, 1}, {FormatAuto, 0}} {
			for _, n := range []int{1, 5, 33} {
				a, bd1, bd2 := bandedSweepFixture(t, rng, n, 1, 1, order)
				ps, err := newTestSweep(a, bd1, bd2, nil, order, c.workers, c.format)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("order %d %s/w%d n=%d", order, ps.Format(), c.workers, n)
				src := make([][]float64, order+1)
				for j := range src {
					src[j] = make([]float64, n)
					for i := range src[j] {
						src[j][i] = rng.NormFloat64()
					}
				}
				block := make([]float64, ps.AccWords())
				fillCanary(block)
				ps.PackAcc(block, src)
				isMoment := make([]bool, len(block))
				for j := range src {
					for i, v := range src[j] {
						k := moment(ps, j, i)
						isMoment[k] = true
						if math.Float64bits(block[k]) != math.Float64bits(v) {
							t.Fatalf("%s: packed moment %d row %d = %x, want %x", tag, j, i, math.Float64bits(block[k]), math.Float64bits(v))
						}
					}
				}
				// The padding the kernels read or accumulate into is zeroed:
				// a row-lane plane's two edge cells, an interleaved state's
				// lanes past order.
				var pad []int
				switch st, off := ps.planes(); {
				case off == 1:
					for j := 0; j <= order; j++ {
						pad = append(pad, j*st, j*st+n+1)
					}
				case st == 0:
					for i := 0; i < n; i++ {
						for l := order + 1; l < ps.lanes; l++ {
							pad = append(pad, i*ps.lanes+l)
						}
					}
				}
				for _, k := range pad {
					if math.Float64bits(block[k]) != 0 {
						t.Fatalf("%s: padding cell %d = %x after PackAcc, want +0", tag, k, math.Float64bits(block[k]))
					}
				}
				for k := range block {
					if !isMoment[k] {
						block[k] = math.Inf(1)
					}
				}
				got := make([][]float64, order+1)
				for j := range got {
					got[j] = make([]float64, n)
				}
				ps.UnpackAcc(got, block)
				for j := range src {
					requireBitsEqual(t, fmt.Sprintf("%s moment %d", tag, j), got[j], src[j])
				}
			}
		}
	}
}

// TestSweepWindowClipping pins the windowing contract: iterations outside
// [First, Last] never accumulate, even when their weights are non-zero,
// and both kernels implement the identical contract.
func TestSweepWindowClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSweepFixture(t, rng, 12, 2, false)
	gMax := 20
	w := make([]float64, gMax+1)
	for k := range w {
		w[k] = 1 // non-zero everywhere: only the window may clip
	}

	full := func(first, last int) [][]float64 {
		_, acc := runReference(t, s.csr, s.diag1, s.diag2, nil, 2, gMax, [][]float64{w}, []int{first}, []int{last})
		return acc[0]
	}

	clipped := full(5, 9)
	var manual [][]float64
	{
		// Accumulate iterations 5..9 by hand from four separate windows.
		acc := full(5, 5)
		for _, k := range []int{6, 7, 8, 9} {
			one := full(k, k)
			for j := range acc {
				for i := range acc[j] {
					acc[j][i] += one[j][i]
				}
			}
		}
		manual = acc
	}
	for j := range clipped {
		for i := range clipped[j] {
			if math.Abs(clipped[j][i]-manual[j][i]) > 1e-12*math.Max(1, math.Abs(manual[j][i])) {
				t.Fatalf("acc[%d][%d] = %g, manual window sum %g", j, i, clipped[j][i], manual[j][i])
			}
		}
	}

	// An inert plan (Last < First) must accumulate nothing and a
	// full-range plan must accumulate something.
	cur, plans := newRunState(s, [][]float64{w, w}, []int{0, 3}, []int{-1, 12})
	if _, err := s.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
		t.Fatal(err)
	}
	acc := unpackPlans(s, plans)
	for j := range acc[0] {
		for i, v := range acc[0][j] {
			if v != 0 {
				t.Fatalf("inert plan accumulated acc[%d][%d] = %g", j, i, v)
			}
		}
	}
	var nonzero bool
	for _, v := range acc[1][0] {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("windowed plan accumulated nothing")
	}
}

// TestPlanWorkers pins the parallelism policy: automatic selection runs
// the fused kernel at every size — a 1-worker team below the threshold,
// which sits at 8,191 rows, the smallest benchmarked size where the
// split-tiled team wins by more than 10% (so the 2,001-row midsize shape
// and 4,095 rows stay inline), a GOMAXPROCS team (capped at rows) at or
// above it — explicit requests are honored (capped at rows), and only a
// negative request selects the reference sweep (0).
func TestPlanWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, rows, want int
	}{
		{0, 1, 1},
		{0, 33, 1},
		{0, 2_001, 1},
		{0, 4_095, 1},
		{0, 8_190, 1},
		{0, 8_191, min(procs, 8_191)},
		{0, parallelThreshold - 1, 1},
		{0, parallelThreshold, min(procs, parallelThreshold)},
		{0, parallelThreshold * 4, procs},
		{-1, parallelThreshold * 4, 0},
		{-7, 10, 0},
		{3, 10, 3},
		{3, 2, 2},
		{1, parallelThreshold * 4, 1},
	}
	for _, c := range cases {
		if got := PlanWorkers(c.requested, c.rows); got != c.want {
			t.Errorf("PlanWorkers(%d, %d) = %d, want %d", c.requested, c.rows, got, c.want)
		}
	}
}

// TestNnzPartition checks the load-balanced row split on a pathologically
// skewed matrix: a handful of dense hub rows among many sparse ones. A
// row-count split would put all hubs in one block; the nnz split must
// keep every block within a small factor of the ideal share.
func TestNnzPartition(t *testing.T) {
	const n = 1000
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		_ = b.Add(i, (i+1)%n, 1) // sparse backbone
	}
	for h := 0; h < 5; h++ {
		for j := 0; j < n; j++ {
			_ = b.Add(h, j, 1) // five dense hub rows at the top
		}
	}
	a := b.Build()
	workers := 4
	blocks := partitionRows(a.rows, workers, func(i int) int64 {
		return int64(rowBase + a.rowPtr[i+1] - a.rowPtr[i])
	})
	if len(blocks) != workers+1 || blocks[0] != 0 || blocks[workers] != n {
		t.Fatalf("bad block boundaries %v", blocks)
	}
	cost := func(lo, hi int) int {
		c := 0
		for i := lo; i < hi; i++ {
			c += 4 + a.rowPtr[i+1] - a.rowPtr[i]
		}
		return c
	}
	total := cost(0, n)
	for w := 0; w < workers; w++ {
		if blocks[w] > blocks[w+1] {
			t.Fatalf("non-monotone blocks %v", blocks)
		}
		share := cost(blocks[w], blocks[w+1])
		// A single row is indivisible, so allow one max-row of slack plus
		// a fraction of the ideal share.
		if share > total/workers+n+10 {
			t.Errorf("worker %d carries %d of %d total (blocks %v)", w, share, total, blocks)
		}
	}
}

// TestSweepValidation exercises the constructor and run-state checks.
func TestSweepValidation(t *testing.T) {
	a, err := NewCSRFromDense(2, 2, []float64{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rect, err := NewCSRFromDense(2, 3, make([]float64, 6))
	if err != nil {
		t.Fatal(err)
	}
	d2 := []float64{1, 2}
	mk := func(a *CSR, d1 []float64, imp []*CSR, order int) error {
		_, err := newTestSweep(a, d1, d2, imp, order, 1, FormatAuto)
		return err
	}
	if _, err := NewSweep(nil, d2, d2, nil, 1, 1); err == nil {
		t.Error("nil matrix accepted")
	}
	if mk(rect, d2, nil, 1) == nil {
		t.Error("rectangular matrix accepted")
	}
	if mk(a, []float64{1}, nil, 1) == nil {
		t.Error("short diagonal accepted")
	}
	if mk(a, d2, nil, -1) == nil {
		t.Error("negative order accepted")
	}
	if mk(a, d2, []*CSR{a}, 2) == nil {
		t.Error("too few impulse matrices accepted")
	}

	s, err := newTestSweep(a, d2, d2, nil, 1, 1, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 1}, {0, 0}}
	if _, err := s.RunFrom(context.Background(), 1, 1, good[:1], nil, 32); err == nil {
		t.Error("short cur accepted")
	}
	if _, err := s.RunFrom(context.Background(), 0, 1, good, nil, 32); err == nil {
		t.Error("resume iteration 0 accepted")
	}
	badPlan := []SweepPlan{{First: 0, Last: 5, Weight: []float64{1}, Acc: make([]float64, s.AccWords())}}
	if _, err := s.RunFrom(context.Background(), 1, 1, good, badPlan, 32); err == nil {
		t.Error("window beyond weights accepted")
	}
	shortAcc := []SweepPlan{{First: 0, Last: 1, Weight: []float64{1, 1}, Acc: make([]float64, s.AccWords()-1)}}
	if _, err := s.RunFrom(context.Background(), 1, 1, good, shortAcc, 32); err == nil {
		t.Error("short accumulator block accepted")
	}
}

// TestSweepCancellation verifies both kernels honor context cancellation
// and that the split team's goroutines drain on every exit path.
func TestSweepCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, zero := randomSweepFixture(t, rng, 50, 2, false).csr, make([]float64, 50)
	s2, err := newTestSweep(a, zero, zero, nil, 2, 4, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []*Sweep{s2, newReference(t, a, zero, zero, nil, 2)} {
		cur, plans := newRunState(s, [][]float64{make([]float64, 1001)}, []int{0}, []int{1000})
		if _, err := s.RunFrom(ctx, 1, 1000, cur, plans, 1); err == nil {
			t.Fatalf("cancelled run (%d workers) returned no error", s.workers)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("worker goroutines leaked: %d > %d", g, before)
	}
}

// countdownCtx reports cancellation after its Err method has been polled
// a fixed number of times, letting tests interrupt a sweep at an exact
// iteration barrier deterministically.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls <= 0 {
		return context.DeadlineExceeded
	}
	c.polls--
	return nil
}

// TestSweepResumeBitwise is the engine-level resume gate: a sweep
// interrupted at every iteration barrier, state-exported through the
// interrupt hook, and continued with RunFrom must reproduce the
// uninterrupted reference run bit for bit — for every storage format,
// worker count, impulse-free and impulse shapes, and the reference
// kernel alike.
func TestSweepResumeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	type build func() (*Sweep, error)
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(40)
		order := rng.Intn(5)
		if trial%2 == 1 {
			order = 3 // interleaved kernels
		}
		gMax := 3 + rng.Intn(12)
		var a *CSR
		var d1, d2v []float64
		var imp []*CSR
		if trial%2 == 1 {
			a, d1, d2v = bandedSweepFixture(t, rng, n, 1, 1, order)
		} else {
			f := randomSweepFixture(t, rng, n, order, trial%4 == 2)
			a, d1, d2v, imp = f.csr, f.diag1, f.diag2, f.imp
		}

		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}
		refMV, refAcc := runReference(t, a, d1, d2v, imp, order, gMax, weights, firsts, lasts)

		builders := map[string]build{
			"auto/w1":      func() (*Sweep, error) { return newTestSweep(a, d1, d2v, imp, order, 1, FormatAuto) },
			"auto/w3":      func() (*Sweep, error) { return newTestSweep(a, d1, d2v, imp, order, 3, FormatAuto) },
			"csr/w2":       func() (*Sweep, error) { return newTestSweep(a, d1, d2v, imp, order, 2, FormatCSR) },
			"band/w2":      func() (*Sweep, error) { return newTestSweep(a, d1, d2v, imp, order, 2, FormatBand) },
			"reference/w0": func() (*Sweep, error) { return newTestSweep(a, d1, d2v, imp, order, 0, FormatAuto) },
		}
		for name, mk := range builders {
			if name == "band/w2" && trial%2 == 0 {
				continue // not banded
			}
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			fullCur, fullPlans := newRunState(s, weights, firsts, lasts)
			fullMV, err := s.RunFrom(context.Background(), 1, gMax, fullCur, fullPlans, 1)
			if err != nil {
				t.Fatalf("trial %d %s: full run: %v", trial, name, err)
			}
			if fullMV != refMV {
				t.Fatalf("trial %d %s: matvecs %d != reference %d", trial, name, fullMV, refMV)
			}
			requireAccBitwise(t, fmt.Sprintf("trial %d %s: full run", trial, name), s, fullPlans, refAcc)

			// Interrupt at every barrier k = 1..gMax (completed = k-1) and
			// resume; the combined run must match the uninterrupted one.
			for polls := 1; polls <= gMax; polls++ {
				rs, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				var completed = -1
				state := make([][]float64, order+1)
				for j := range state {
					state[j] = make([]float64, n)
				}
				rs.SetInterruptHook(func(done int, export func([][]float64)) {
					completed = done
					export(state)
				})
				cur, plans := newRunState(rs, weights, firsts, lasts)
				ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
				if _, err := rs.RunFrom(ctx, 1, gMax, cur, plans, 1); err == nil {
					t.Fatalf("trial %d %s polls %d: run was not interrupted", trial, name, polls)
				}
				if completed != polls-1 {
					t.Fatalf("trial %d %s polls %d: completed = %d", trial, name, polls, completed)
				}
				rs.SetInterruptHook(nil)
				mv, err := rs.RunFrom(context.Background(), completed+1, gMax, state, plans, 1)
				if err != nil {
					t.Fatalf("trial %d %s polls %d: resume: %v", trial, name, polls, err)
				}
				if want := fullMV - rs.matVecs(completed); mv != want {
					t.Fatalf("trial %d %s polls %d: resumed matvecs %d, want %d", trial, name, polls, mv, want)
				}
				requireAccBitwise(t, fmt.Sprintf("trial %d %s polls %d", trial, name, polls), rs, plans, refAcc)
			}
		}
	}
}
