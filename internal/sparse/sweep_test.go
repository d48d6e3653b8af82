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
	s, err := NewSweep(a, diag1, diag2, imp, order, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newRunState allocates cur/next with the standard initial condition
// (cur[0] = 1) and fresh plan accumulators over the given weights.
func newRunState(s *Sweep, weights [][]float64, firsts, lasts []int) (cur, next [][]float64, plans []SweepPlan) {
	n := s.rows
	cur = make([][]float64, s.order+1)
	next = make([][]float64, s.order+1)
	for j := 0; j <= s.order; j++ {
		cur[j] = make([]float64, n)
		next[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		cur[0][i] = 1
	}
	ps := s.PlaneStride()
	for pi, w := range weights {
		// PlaneStride apart in one allocation, as the solver carves them.
		buf := make([]float64, s.order*ps+n)
		acc := make([][]float64, s.order+1)
		for j := range acc {
			acc[j] = buf[j*ps : j*ps+n : j*ps+n]
		}
		plans = append(plans, SweepPlan{First: firsts[pi], Last: lasts[pi], Weight: w, Acc: acc})
	}
	return cur, next, plans
}

// scatterAcc moves a plan's accumulators into separate allocations, so
// they no longer lie at a uniform stride.
func scatterAcc(p *SweepPlan) {
	for j, a := range p.Acc {
		p.Acc[j] = append(make([]float64, 0, len(a)+j+1), a...)
	}
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

// requireAccBitwise fails unless every plan's accumulators in got match
// want bit for bit.
func requireAccBitwise(t *testing.T, tag string, got, want []SweepPlan, order, n int) {
	t.Helper()
	for pi := range want {
		for j := 0; j <= order; j++ {
			for i := 0; i < n; i++ {
				g, w := got[pi].Acc[j][i], want[pi].Acc[j][i]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: plan %d acc[%d][%d] = %x, reference %x",
						tag, pi, j, i, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}

// lendDirtyScratch lends s a NaN-filled interleaved scratch buffer, which
// Run must fully overwrite or zero; false when the run shape has none.
func lendDirtyScratch(s *Sweep) bool {
	scratch := make([]float64, s.ScratchWords())
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	s.SetScratch(scratch)
	return len(scratch) > 0
}

// TestSweepFusedMatchesReference is the engine-level bitwise gate: for
// random matrix families (with and without impulses) and every worker
// count, the fused kernel must reproduce the serial reference sweep bit
// for bit — accumulators and product counts alike.
func TestSweepFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(60)
		order := rng.Intn(5)
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

		refCur, refNext, refPlans := newRunState(s, weights, firsts, lasts)
		refMV, err := s.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 32)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}

		for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0) + 2} {
			fs, err := NewSweep(s.a, s.diag1, s.diag2, s.imp, order, workers)
			if err != nil {
				t.Fatal(err)
			}
			cur, next, plans := newRunState(fs, weights, firsts, lasts)
			mv, err := fs.Run(context.Background(), gMax, cur, next, plans, 32)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if mv != refMV {
				t.Fatalf("trial %d workers %d: matvecs %d != reference %d", trial, workers, mv, refMV)
			}
			requireAccBitwise(t, fmt.Sprintf("trial %d workers %d", trial, workers), plans, refPlans, order, fs.a.rows)
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
// bit — including the order-3 interleaved kernels with both fresh and
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

		ref, err := NewSweep(a, diag1, diag2, nil, order, 1)
		if err != nil {
			t.Fatal(err)
		}
		refCur, refNext, refPlans := newRunState(ref, weights, firsts, lasts)
		if _, err := ref.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 32); err != nil {
			t.Fatal(err)
		}

		for _, format := range formats {
			for _, workers := range []int{1, 3} {
				for _, dirtyScratch := range []bool{false, true} {
					fs, err := NewSweepWithFormat(a, diag1, diag2, nil, order, workers, format)
					if err != nil {
						t.Fatal(err)
					}
					if blo, bhi := a.Bandwidth(); format == FormatBand && (fs.Format() == FormatBand) != (blo <= 1 && bhi <= 1) {
						t.Fatalf("trial %d: forced band resolved to %q (bandwidth lo=%d hi=%d n=%d)", trial, fs.Format(), blo, bhi, n)
					}
					if dirtyScratch && !lendDirtyScratch(fs) {
						continue // no interleaved path for this shape
					}
					cur, next, plans := newRunState(fs, weights, firsts, lasts)
					if _, err := fs.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
						t.Fatalf("trial %d format %q workers %d: %v", trial, format, workers, err)
					}
					requireAccBitwise(t, fmt.Sprintf("trial %d format %q (resolved %q) workers %d dirty=%v",
						trial, format, fs.Format(), workers, dirtyScratch), plans, refPlans, order, n)
				}
			}
		}
	}
}

// TestSweepFormatResolution pins what NewSweep resolves for characteristic
// shapes: tridiagonal matrices stream the band, everything else the
// compact CSR, and csr64 resolves only as the reference oracle's storage,
// with no interleaved buffers.
func TestSweepFormatResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tri, d1, d2 := bandedSweepFixture(t, rng, 300, 1, 1, 3)
	s, err := NewSweep(tri, d1, d2, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Format() != FormatBand {
		t.Errorf("tridiagonal auto format = %q, want band", s.Format())
	}
	// Four row-lane planes per buffer, each 300 rows + 2 padding cells
	// rounded to 304 words and spread to 320 (2,560 bytes: no two of the
	// eight plane starts within 256 bytes of each other mod 4096).
	if s.ScratchWords() != 2*4*320 {
		t.Errorf("ScratchWords = %d, want %d", s.ScratchWords(), 2*4*320)
	}

	ring := randomSweepFixture(t, rng, 50, 3, false)
	if ring.Format() != FormatCSR32 {
		t.Errorf("ring auto format = %q, want csr32", ring.Format())
	}

	s64, err := NewSweepWithFormat(tri, d1, d2, nil, 3, 1, FormatCSR64)
	if err != nil {
		t.Fatal(err)
	}
	if s64.Format() != FormatCSR64 {
		t.Errorf("forced csr64 format = %q", s64.Format())
	}
	if s64.ScratchWords() != 0 {
		t.Errorf("csr64 ScratchWords = %d, want 0", s64.ScratchWords())
	}

	// Impulse shapes never use the interleaved buffers.
	impl := randomSweepFixture(t, rng, 30, 3, true)
	if impl.ScratchWords() != 0 {
		t.Errorf("impulse ScratchWords = %d, want 0", impl.ScratchWords())
	}
}

// TestSweepRunRejectsCSR64 pins the reference-only contract of the csr64
// storage: Run and RunFrom refuse it with ErrUnsupportedFormat (there is
// no fused csr64 kernel, and a silent no-op would leave all-zero
// accumulators), while RunReference still streams it.
func TestSweepRunRejectsCSR64(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, order := range []int{2, 3} {
		a, d1, d2 := bandedSweepFixture(t, rng, 40, 1, 1, order)
		s, err := NewSweepWithFormat(a, d1, d2, nil, order, 1, FormatCSR64)
		if err != nil {
			t.Fatal(err)
		}
		w := []float64{0, 0.5, 0.5}
		cur, next, plans := newRunState(s, [][]float64{w}, []int{0}, []int{2})
		if _, err := s.Run(context.Background(), 2, cur, next, plans, 1); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("order %d: Run on csr64: err = %v, want ErrUnsupportedFormat", order, err)
		}
		if _, err := s.RunFrom(context.Background(), 2, 2, cur, next, plans, 1); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("order %d: RunFrom on csr64: err = %v, want ErrUnsupportedFormat", order, err)
		}
		if _, err := s.RunReference(context.Background(), 2, cur, next, plans, 1); err != nil {
			t.Errorf("order %d: RunReference on csr64: %v", order, err)
		}
		if plans[0].Acc[0][0] == 0 {
			t.Errorf("order %d: reference run accumulated nothing", order)
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
		cur, next, plans := newRunState(s, [][]float64{w}, []int{first}, []int{last})
		if _, err := s.RunReference(context.Background(), gMax, cur, next, plans, 32); err != nil {
			t.Fatal(err)
		}
		return plans[0].Acc
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
	cur, next, plans := newRunState(s, [][]float64{w, w}, []int{0, 3}, []int{-1, 12})
	if _, err := s.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
		t.Fatal(err)
	}
	for j := range plans[0].Acc {
		for i, v := range plans[0].Acc[j] {
			if v != 0 {
				t.Fatalf("inert plan accumulated acc[%d][%d] = %g", j, i, v)
			}
		}
	}
	var nonzero bool
	for _, v := range plans[1].Acc[0] {
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
	if _, err := NewSweep(nil, d2, d2, nil, 1, 1); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewSweep(rect, d2, d2, nil, 1, 1); err == nil {
		t.Error("rectangular matrix accepted")
	}
	if _, err := NewSweep(a, []float64{1}, d2, nil, 1, 1); err == nil {
		t.Error("short diagonal accepted")
	}
	if _, err := NewSweep(a, d2, d2, nil, -1, 1); err == nil {
		t.Error("negative order accepted")
	}
	if _, err := NewSweep(a, d2, d2, []*CSR{a}, 2, 1); err == nil {
		t.Error("too few impulse matrices accepted")
	}

	s, err := NewSweep(a, d2, d2, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 1}, {0, 0}}
	if _, err := s.Run(context.Background(), 1, good[:1], good, nil, 32); err == nil {
		t.Error("short cur accepted")
	}
	badPlan := []SweepPlan{{First: 0, Last: 5, Weight: []float64{1}}}
	if _, err := s.Run(context.Background(), 1, good, [][]float64{{0, 0}, {0, 0}}, badPlan, 32); err == nil {
		t.Error("window beyond weights accepted")
	}
}

// TestSweepCancellation verifies both kernels honor context cancellation
// and that the persistent team's goroutines drain on every exit path.
func TestSweepCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s2, err := NewSweep(randomSweepFixture(t, rng, 50, 2, false).a,
		make([]float64, 50), make([]float64, 50), nil, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur, next, plans := newRunState(s2, [][]float64{make([]float64, 1001)}, []int{0}, []int{1000})
	if _, err := s2.Run(ctx, 1000, cur, next, plans, 1); err == nil {
		t.Fatal("cancelled fused run returned no error")
	}
	if _, err := s2.RunReference(ctx, 1000, cur, next, plans, 1); err == nil {
		t.Fatal("cancelled reference run returned no error")
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
// uninterrupted run bit for bit — for every storage format, worker
// count, and the reference kernel alike.
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
		if trial%2 == 1 {
			a, d1, d2v = bandedSweepFixture(t, rng, n, 1, 1, order)
		} else {
			f := randomSweepFixture(t, rng, n, order, trial%4 == 2)
			a, d1, d2v = f.a, f.diag1, f.diag2
		}

		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}

		builders := map[string]build{
			"auto/w1": func() (*Sweep, error) { return NewSweep(a, d1, d2v, nil, order, 1) },
			"auto/w3": func() (*Sweep, error) { return NewSweep(a, d1, d2v, nil, order, 3) },
			"csr/w2":  func() (*Sweep, error) { return NewSweepWithFormat(a, d1, d2v, nil, order, 2, FormatCSR) },
			"band/w2": func() (*Sweep, error) { return NewSweepWithFormat(a, d1, d2v, nil, order, 2, FormatBand) },
		}
		for name, mk := range builders {
			if name == "band/w2" && trial%2 == 0 {
				continue // not banded
			}
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			fullCur, fullNext, fullPlans := newRunState(s, weights, firsts, lasts)
			fullMV, err := s.Run(context.Background(), gMax, fullCur, fullNext, fullPlans, 1)
			if err != nil {
				t.Fatalf("trial %d %s: full run: %v", trial, name, err)
			}

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
				cur, next, plans := newRunState(rs, weights, firsts, lasts)
				ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
				if _, err := rs.Run(ctx, gMax, cur, next, plans, 1); err == nil {
					t.Fatalf("trial %d %s polls %d: run was not interrupted", trial, name, polls)
				}
				if completed != polls-1 {
					t.Fatalf("trial %d %s polls %d: completed = %d", trial, name, polls, completed)
				}
				rs.SetInterruptHook(nil)
				for j := range state {
					copy(cur[j], state[j])
				}
				mv, err := rs.RunFrom(context.Background(), completed+1, gMax, cur, next, plans, 1)
				if err != nil {
					t.Fatalf("trial %d %s polls %d: resume: %v", trial, name, polls, err)
				}
				if want := fullMV - rs.matVecs(completed); mv != want {
					t.Fatalf("trial %d %s polls %d: resumed matvecs %d, want %d", trial, name, polls, mv, want)
				}
				requireAccBitwise(t, fmt.Sprintf("trial %d %s polls %d", trial, name, polls), plans, fullPlans, order, n)
			}

			// The reference kernel honors the same contract.
			rr, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			refCur, refNext, refPlans := newRunState(rr, weights, firsts, lasts)
			refMV, err := rr.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 1)
			if err != nil {
				t.Fatal(err)
			}
			if name == "auto/w1" && refMV != fullMV {
				t.Fatalf("trial %d: reference matvecs %d != fused %d", trial, refMV, fullMV)
			}
			ri, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var completed = -1
			state := make([][]float64, order+1)
			for j := range state {
				state[j] = make([]float64, n)
			}
			ri.SetInterruptHook(func(done int, export func([][]float64)) {
				completed = done
				export(state)
			})
			cur, next, plans := newRunState(ri, weights, firsts, lasts)
			half := gMax/2 + 1
			ctx := &countdownCtx{Context: context.Background(), polls: half - 1}
			if _, err := ri.RunReference(ctx, gMax, cur, next, plans, 1); err == nil {
				t.Fatalf("trial %d %s: reference run was not interrupted", trial, name)
			}
			ri.SetInterruptHook(nil)
			for j := range state {
				copy(cur[j], state[j])
			}
			if _, err := ri.RunReferenceFrom(context.Background(), completed+1, gMax, cur, next, plans, 1); err != nil {
				t.Fatal(err)
			}
			requireAccBitwise(t, fmt.Sprintf("trial %d %s: reference resume", trial, name), plans, refPlans, order, n)
		}
	}
}
