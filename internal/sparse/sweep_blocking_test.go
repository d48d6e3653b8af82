package sparse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSweepTemporalBlockingBitwise is the temporal-blocking bitwise gate:
// for tridiagonal-window, wider-banded and block-tridiagonal families,
// and an impulse family whose impulse matrices reach further than its
// sweep matrix (so the blocked schedule must widen its skew), at moment
// orders 0, 2, 3 (twice), 4 and 12, every temporal block depth × spatial
// tile × worker count × format must reproduce the serial reference sweep
// bit for bit — including ragged final groups (gMax not divisible by T)
// and split-tiled teams whose segments hold several blocks each.
func TestSweepTemporalBlockingBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	type fixture struct {
		name    string
		a       *CSR
		d1, d2  []float64
		imp     []*CSR
		formats []MatrixFormat
	}
	for trial, order := range []int{3, 0, 2, 3, 4, 12} {
		n := 40 + rng.Intn(80)
		a, d1, d2 := bandedSweepFixture(t, rng, n, rng.Intn(2), rng.Intn(2), order)
		wa, wd1, wd2 := bandedSweepFixture(t, rng, n, 2+rng.Intn(2), 1+rng.Intn(3), order)
		qn := 4 * (10 + rng.Intn(8))
		q := qbdFixture(t, rng, qn/4, 4)
		qd1, qd2 := randDiags(rng, qn)
		var imp []*CSR
		wide := bandedFixture(t, rng, n, 4, 5)
		for m := 1; m <= order; m++ {
			imp = append(imp, wide.Scaled(0.5/float64(m)))
		}
		fixtures := []fixture{
			{"band", a, d1, d2, nil, []MatrixFormat{FormatAuto, FormatBand, FormatCSR}},
			{"wide", wa, wd1, wd2, nil, []MatrixFormat{FormatAuto, FormatCSR}},
			{"qbd", q, qd1, qd2, nil, []MatrixFormat{FormatAuto}},
			{"impulse", wa, wd1, wd2, imp, []MatrixFormat{FormatBand, FormatCSR}},
		}
		gMax := 5 + rng.Intn(11) // 5..15: ragged against every T below
		weights := make([][]float64, 2)
		firsts, lasts := make([]int, 2), make([]int, 2)
		for pi := range weights {
			w := randWeights(rng, gMax)
			weights[pi] = w
			firsts[pi] = rng.Intn(gMax)
			lasts[pi] = firsts[pi] + rng.Intn(gMax+1-firsts[pi])
		}

		for _, fx := range fixtures {
			refMV, refAcc := runReference(t, fx.a, fx.d1, fx.d2, fx.imp, order, gMax, weights, firsts, lasts)

			for _, format := range fx.formats {
				for _, tb := range []int{2, 3, 4, 8} {
					for _, tile := range []int{8, 32} {
						for _, workers := range []int{1, 2, 3, 8} {
							fs, err := NewSweepWithFormat(fx.a, fx.d1, fx.d2, fx.imp, order, workers, format)
							if err != nil {
								t.Fatal(err)
							}
							fs.SetSweepTile(tile)
							fs.SetTemporalBlock(tb)
							cur, plans := newRunState(fs, weights, firsts, lasts)
							mv, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 32)
							if err != nil {
								t.Fatalf("trial %d %s %q T=%d tile=%d w=%d: %v",
									trial, fx.name, format, tb, tile, workers, err)
							}
							if mv != refMV {
								t.Fatalf("trial %d %s %q T=%d tile=%d w=%d: matvecs %d != reference %d",
									trial, fx.name, format, tb, tile, workers, mv, refMV)
							}
							if got := fs.TemporalBlock(); got != tb {
								t.Fatalf("trial %d %s %q T=%d: resolved depth %d", trial, fx.name, format, tb, got)
							}
							tag := fmt.Sprintf("order %d %s/%s", order, fx.name, format)
							requireAccBitwise(t, tag, fs, plans, refAcc)
						}
					}
				}
			}
		}
	}
}

// TestSweepTemporalBlockingResume is the checkpoint gate under blocking:
// a blocked sweep interrupted at every group boundary and resumed — in
// blocked or unblocked mode — must reproduce the uninterrupted run bit
// for bit, and tokens captured by an unblocked sweep must resume under
// blocking. Group boundaries are the only barriers a blocked run
// observes, so completed counts must land on multiples of T.
func TestSweepTemporalBlockingResume(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	const order, T = 3, 3
	for trial := 0; trial < 3; trial++ {
		n := 30 + rng.Intn(50)
		a, d1, d2 := bandedSweepFixture(t, rng, n, 1, 2, order)
		gMax := 7 + rng.Intn(8)
		w := randWeights(rng, gMax)
		weights := [][]float64{w}
		firsts, lasts := []int{0}, []int{gMax}

		mk := func(workers, tblock int) *Sweep {
			s, err := NewSweepWithFormat(a, d1, d2, nil, order, workers, FormatAuto)
			if err != nil {
				t.Fatal(err)
			}
			s.SetSweepTile(8)
			s.SetTemporalBlock(tblock)
			return s
		}

		full := mk(1, T)
		fullCur, fullPlans := newRunState(full, weights, firsts, lasts)
		fullMV, err := full.RunFrom(context.Background(), 1, gMax, fullCur, fullPlans, 1)
		if err != nil {
			t.Fatal(err)
		}
		fullAcc := unpackPlans(full, fullPlans)

		for _, workers := range []int{1, 3} {
			// polls = p interrupts a blocked run at its p-th group boundary:
			// completed = (p-1)·T iterations.
			for polls := 1; (polls-1)*T < gMax; polls++ {
				for _, resumeBlocked := range []bool{true, false} {
					rs := mk(workers, T)
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
						t.Fatalf("trial %d w=%d polls %d: blocked run was not interrupted", trial, workers, polls)
					}
					if completed != (polls-1)*T {
						t.Fatalf("trial %d w=%d polls %d: completed = %d, want group boundary %d",
							trial, workers, polls, completed, (polls-1)*T)
					}
					cont := mk(workers, T)
					if !resumeBlocked {
						cont = mk(workers, 1) // cross-mode: blocked token, unblocked resume
					}
					mv, err := cont.RunFrom(context.Background(), completed+1, gMax, state, plans, 1)
					if err != nil {
						t.Fatalf("trial %d w=%d polls %d blocked=%v: resume: %v", trial, workers, polls, resumeBlocked, err)
					}
					if want := fullMV - cont.matVecs(completed); mv != want {
						t.Fatalf("trial %d w=%d polls %d: resumed matvecs %d, want %d", trial, workers, polls, mv, want)
					}
					requireAccBitwise(t, "resume", cont, plans, fullAcc)
				}
			}

			// The reverse direction: a token captured by an unblocked sweep
			// (arbitrary iteration barrier, not a group multiple) must resume
			// under blocking with re-based groups.
			for _, polls := range []int{2, gMax / 2, gMax} {
				us := mk(workers, 1)
				var completed = -1
				state := make([][]float64, order+1)
				for j := range state {
					state[j] = make([]float64, n)
				}
				us.SetInterruptHook(func(done int, export func([][]float64)) {
					completed = done
					export(state)
				})
				cur, plans := newRunState(us, weights, firsts, lasts)
				ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
				if _, err := us.RunFrom(ctx, 1, gMax, cur, plans, 1); err == nil {
					t.Fatalf("trial %d w=%d polls %d: unblocked run was not interrupted", trial, workers, polls)
				}
				cont := mk(workers, T)
				if _, err := cont.RunFrom(context.Background(), completed+1, gMax, state, plans, 1); err != nil {
					t.Fatalf("trial %d w=%d polls %d: blocked resume of unblocked token: %v", trial, workers, polls, err)
				}
				requireAccBitwise(t, "cross-resume", cont, plans, fullAcc)
			}
		}
	}
}

// TestTemporalBlockResolution pins the blocking policy: what shapes block
// automatically, how forced depths and the width floor resolve, and that
// a forced depth engages on every shape.
func TestTemporalBlockResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	tri, d1, d2 := bandedSweepFixture(t, rng, 300, 1, 1, 3)
	s, err := NewSweepWithFormat(tri, d1, d2, nil, 3, 1, FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	band := func(n, workers int) *Sweep {
		a, bd1, bd2 := bandedSweepFixture(t, rng, n, 1, 1, 3)
		bs, err := NewSweepWithFormat(a, bd1, bd2, nil, 3, workers, FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}

	// Auto blocks a 1-worker band sweep in L1-sized 128-row blocks at
	// depth 16 as soon as two blocks fit, and leaves it unblocked below.
	if T, W, skew := s.resolveBlocking(); T != 16 || W != 128 || skew != 1 {
		t.Errorf("auto on 300-row band resolved (T=%d, W=%d, skew=%d), want (16, 128, 1)", T, W, skew)
	}
	if T, W, _ := band(255, 1).resolveBlocking(); T != 1 || W != 128 {
		t.Errorf("auto on 255-row band resolved (T=%d, W=%d), want (1, 128)", T, W)
	}
	// A team runs the same 128-row L1 blocks, from two such blocks up.
	if T, W, _ := band(255, 2).resolveBlocking(); T != 1 || W != 128 {
		t.Errorf("auto on 255-row band team resolved (T=%d, W=%d), want (1, 128)", T, W)
	}
	if T, W, skew := band(256, 2).resolveBlocking(); T != 16 || W != 128 || skew != 1 {
		t.Errorf("auto on 256-row band team resolved (T=%d, W=%d, skew=%d), want (16, 128, 1)", T, W, skew)
	}
	// Off switches.
	for _, off := range []int{1, -3} {
		s.SetTemporalBlock(off)
		if T, _, _ := s.resolveBlocking(); T != 1 {
			t.Errorf("tblock=%d resolved T=%d, want 1", off, T)
		}
	}
	// Forced depths are honored regardless of size, and the block width
	// is the caller's tile as set, even below the skew: the split-tiled
	// schedule is exact at every width.
	s.SetTemporalBlock(4)
	if T, W, skew := s.resolveBlocking(); T != 4 || skew != 1 || W != 128 {
		t.Errorf("forced resolved (T=%d, W=%d, skew=%d), want (4, 128, 1)", T, W, skew)
	}
	s.SetSweepTile(1)
	if T, W, skew := s.resolveBlocking(); T != 4 || W != 1 || skew != 1 {
		t.Errorf("tile=1 skew=1 resolved (T=%d, W=%d, skew=%d), want (4, 1, 1)", T, W, skew)
	}
	skewed, sd1, sd2 := bandedSweepFixture(t, rng, 300, 3, 2, 3)
	ks, err := NewSweepWithFormat(skewed, sd1, sd2, nil, 3, 2, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	ks.SetTemporalBlock(4)
	ks.SetSweepTile(4)
	if T, W, skew := ks.resolveBlocking(); T != 4 || W != 4 || skew != 3 {
		t.Errorf("tile=4 skew=3 team resolved (T=%d, W=%d, skew=%d), want (4, 4, 3)", T, W, skew)
	}
	// An explicit tile also overrides the L1 block width under auto.
	s.SetTemporalBlock(0)
	s.SetSweepTile(64)
	if T, W, _ := s.resolveBlocking(); T != 16 || W != 64 {
		t.Errorf("auto with tile=64 resolved (T=%d, W=%d), want (16, 64)", T, W)
	}
	// Requested depths clamp at maxTemporalBlock.
	s.SetTemporalBlock(maxTemporalBlock + 10)
	if T, _, _ := s.resolveBlocking(); T != maxTemporalBlock {
		t.Errorf("oversized request resolved T=%d, want %d", T, maxTemporalBlock)
	}

	// Auto blocks large banded states the same way.
	big := bandedFixture(t, rng, temporalBlockMinWords/8, 1, 1)
	bd1, bd2 := make([]float64, big.rows), make([]float64, big.rows)
	for _, c := range []struct{ workers, W int }{{1, 128}, {2, 128}} {
		bs, err := NewSweepWithFormat(big, bd1, bd2, nil, 3, c.workers, FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		if T, W, skew := bs.resolveBlocking(); T != 16 || W != c.W || skew != 1 {
			t.Errorf("auto on large state, %d workers, resolved (T=%d, W=%d, skew=%d), want (16, %d, 1)",
				c.workers, T, W, skew, c.W)
		}
	}

	// The CSR32 auto policy splits on the dispatched kernel (re-measured
	// for PR 10, see BENCHMARKS.md): the scalar kernel is index- not
	// DRAM-bound and never auto-blocks (blocking measured 12-29% slower),
	// while the AVX2 kernel is memory-bound like the band kernel and
	// auto-blocks (~22% faster) up to the measured skew ceiling. A forced
	// depth engages either way.
	cs, err := NewSweepWithFormat(big, bd1, bd2, nil, 3, 1, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	if SIMDAvailable() && !simdEnvDisabled() {
		if T, _, _ := cs.resolveBlocking(); T != temporalBlockDefault {
			t.Errorf("auto on large CSR state (SIMD) resolved T=%d, want %d", T, temporalBlockDefault)
		}
	}
	cs.simd = false // as built under SOMRM_NOSIMD
	if T, _, _ := cs.resolveBlocking(); T != 1 {
		t.Errorf("auto on large CSR state (scalar) resolved T=%d, want 1", T)
	}
	cs.SetTemporalBlock(4)
	if T, _, _ := cs.resolveBlocking(); T != 4 {
		t.Errorf("forced depth on CSR resolved T=%d, want 4", T)
	}
	// A reach beyond the measured ceiling keeps the SIMD auto policy
	// unblocked too.
	wide := bandedFixture(t, rng, temporalBlockMinWords/8, csrAutoBlockMaxSkew+1, 1)
	ws, err := NewSweepWithFormat(wide, bd1, bd2, nil, 3, 1, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	if T, _, _ := ws.resolveBlocking(); T != 1 {
		t.Errorf("auto on wide-band CSR state resolved T=%d, want 1", T)
	}

	// The reference sweep never blocks, not even at a forced depth.
	rs := newReference(t, big, bd1, bd2, nil, 3)
	rs.SetTemporalBlock(4)
	if T, _, _ := rs.resolveBlocking(); T != 1 {
		t.Errorf("forced depth on the reference sweep resolved T=%d, want 1", T)
	}

	// A forced depth engages at every order and on impulse sweeps too:
	// order-2 compact-CSR and band runs, and an order-2 impulse run.
	// Under auto the impulse sweep, on the scalar kernel, stays unblocked
	// even where the AVX2 CSR32 kernel blocks.
	is, err := NewSweepWithFormat(big, bd1, bd2, []*CSR{big, big, big}, 3, 1, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	if T, _, _ := is.resolveBlocking(); T != 1 {
		t.Errorf("auto on large impulse state resolved T=%d, want 1", T)
	}
	gMax := 6
	w := randWeights(rng, gMax)
	for _, c := range []struct {
		format MatrixFormat
		imp    []*CSR
	}{{FormatCSR, nil}, {FormatBand, nil}, {FormatAuto, []*CSR{tri, tri}}} {
		ps, err := NewSweepWithFormat(tri, d1, d2, c.imp, 2, 1, c.format)
		if err != nil {
			t.Fatal(err)
		}
		ps.SetTemporalBlock(8)
		cur, plans := newRunState(ps, [][]float64{w}, []int{0}, []int{gMax})
		if _, err := ps.RunFrom(context.Background(), 1, gMax, cur, plans, 32); err != nil {
			t.Fatal(err)
		}
		if got := ps.TemporalBlock(); got != 8 {
			t.Errorf("order-2 %s run (%d impulse matrices) resolved depth %d, want 8", c.format, len(c.imp), got)
		}
	}
}

// TestSweepRowLaneBitwise is the row-lane band kernel's bitwise gate
// across moment orders: 0, 1 and 2 run the short loop of the low orders,
// 3 and 5 the odd-order loop with one and two pairs of uniform steps, 4
// and 12 (every bounds solve) the even-order loop with its single step
// before the pairs, and every order its masked group of the last
// n mod 4 rows. For sizes of every residue mod 4 (a single row, 1-3
// rows with no whole group, the paper's 33-state Table 1 chain, 41 and
// the 2,001-row midsize shape), every blocking mode (off, auto, forced
// depths 2, 3 and 16), block width, plan mix and SIMD setting must
// reproduce the serial reference sweep bit for bit, on one worker and
// on a split-tiled 2-worker team alike (whose segments and seams have
// odd widths), and every SIMD run must report the AVX2 kernel. The plan
// mixes cover a run whose only plan opens at the last iteration with
// weight 1 (every earlier iteration accumulates nothing, and the final
// accumulator is the swept state itself), one plan opening at iteration
// 6 — inside a group for every depth tested — whose accumulation the
// kernel fuses, and three overlapping plans with zero weights sprinkled
// in (the unaccumulated kernel plus one pass per plan). Every run gets
// canary-filled lent scratch, so an unzeroed padding cell shows, and
// accumulator blocks whose padding cells all hold canaries; the run must
// leave every scratch cell past a plane's right padding cell and every
// accumulator padding cell as it found them. Sizes up to 41 also drive
// single ranges directly (see requireBandRangesMasked). Order 3 runs
// every size; the other orders a subset that still covers every residue
// mod 4.
func TestSweepRowLaneBitwise(t *testing.T) {
	const gMax = 23 // ragged against depths 2, 3 and 16
	rng := rand.New(rand.NewSource(419))
	mixes := []struct {
		name          string
		firsts, lasts []int
	}{
		{"last-only", []int{gMax}, []int{gMax}},
		{"one-mid-group", []int{6}, []int{gMax}},
		{"three", []int{0, 6, 3}, []int{gMax, gMax - 1, 9}},
	}
	simd := SIMDAvailable() && !simdEnvDisabled()
	for _, order := range []int{3, 0, 1, 2, 4, 5, 12} {
		sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 33, 41, 129, 257, 2001}
		if order != 3 {
			sizes = []int{1, 2, 3, 5, 6, 7, 8, 33, 41, 257, 2001}
		}
		for _, n := range sizes {
			a, d1, d2 := bandedSweepFixture(t, rng, n, 1, 1, order)
			if n <= 41 {
				requireBandRangesMasked(t, rng, a, d1, d2, order)
			}
			for _, mix := range mixes {
				weights := make([][]float64, len(mix.firsts))
				for pi := range weights {
					w := randWeights(rng, gMax)
					for k := range w {
						if pi == 2 && rng.Float64() < 0.15 {
							w[k] = 0
						}
					}
					weights[pi] = w
				}
				if mix.name == "last-only" {
					weights[0][gMax] = 1
				}
				refMV, refAcc := runReference(t, a, d1, d2, nil, order, gMax, weights, mix.firsts, mix.lasts)
				for _, nosimd := range []bool{false, true} {
					for _, tb := range []int{1, 0, 2, 3, 16} {
						for _, tile := range []int{2, 5, 128} {
							for _, workers := range []int{1, 2} {
								fs, err := NewSweepWithFormat(a, d1, d2, nil, order, workers, FormatBand)
								if err != nil {
									t.Fatal(err)
								}
								forceScalar(fs, nosimd)
								fs.SetTemporalBlock(tb)
								fs.SetSweepTile(tile)
								scratch := lendCanaryScratch(fs)
								tag := fmt.Sprintf("order=%d n=%d %s nosimd=%v T=%d W=%d workers=%d", order, n, mix.name, nosimd, tb, tile, workers)
								cur, plans := newRunState(fs, weights, mix.firsts, mix.lasts)
								st := fs.band.stride
								for _, p := range plans {
									fillCanary(p.Acc)
									for j := 0; j <= order; j++ {
										clear(p.Acc[j*st+1 : j*st+1+n])
									}
								}
								mv, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 1)
								if err != nil {
									t.Fatalf("%s: %v", tag, err)
								}
								if mv != refMV {
									t.Fatalf("%s: matvecs %d != reference %d", tag, mv, refMV)
								}
								if tb > 1 && fs.TemporalBlock() != tb {
									t.Fatalf("%s: resolved depth %d", tag, fs.TemporalBlock())
								}
								if want := simd && !nosimd; (fs.Kernel() == KernelAVX2) != want {
									t.Fatalf("%s: kernel %q, want avx2=%v", tag, fs.Kernel(), want)
								}
								requireAccBitwise(t, tag, fs, plans, refAcc)
								for p := 0; p < 2*(order+1); p++ {
									requireCanary(t, tag+" scratch past the padding", scratch[p*st+n+2:(p+1)*st])
								}
								for _, p := range plans {
									for j := 0; j <= order; j++ {
										requireCanary(t, tag+" accumulator padding", p.Acc[j*st:j*st+1])
										requireCanary(t, tag+" accumulator padding", p.Acc[j*st+1+n:(j+1)*st])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// canary is the quiet-NaN payload test buffers hold in every cell a
// kernel must not write; requireCanary compares bits, so a kernel that
// stores any value there, a NaN included, is caught.
var canary = math.Float64frombits(0x7ff8_dead_0000_beef)

func fillCanary(buf []float64) {
	for i := range buf {
		buf[i] = canary
	}
}

func requireCanary(t *testing.T, tag string, buf []float64) {
	t.Helper()
	for i, v := range buf {
		if math.Float64bits(v) != math.Float64bits(canary) {
			t.Fatalf("%s: cell %d overwritten with %x", tag, i, math.Float64bits(v))
		}
	}
}

// lendCanaryScratch lends s a canary-filled packed-state scratch buffer
// and returns it.
func lendCanaryScratch(s *Sweep) []float64 {
	scratch := make([]float64, s.ScratchWords())
	fillCanary(scratch)
	s.SetScratch(scratch)
	return scratch
}

// requireBandRangesMasked drives fuseBlockBand directly on single row
// ranges [lo, hi) of the band — every range for n <= 8, otherwise every
// range starting at one of the first or last five rows and ending within
// nine rows of its start or at one of the last four rows — with no plan,
// one plan (fused into the kernel) and three plans (one pass each).
// Every state and accumulator cell outside the range holds the canary,
// the block tile is 4 (so ranges past four rows split into tiles before
// the masked group), and the dispatched kernel must write exactly what
// the scalar bandRows writes, bit for bit, leaving every canary intact:
// no lane of a masked group stores into a neighbouring row or a padding
// cell.
func requireBandRangesMasked(t *testing.T, rng *rand.Rand, a *CSR, d1, d2 []float64, order int) {
	t.Helper()
	n := a.rows
	vec, err := NewSweepWithFormat(a, d1, d2, nil, order, 1, FormatBand)
	if err != nil {
		t.Fatal(err)
	}
	scal, err := NewSweepWithFormat(a, d1, d2, nil, order, 1, FormatBand)
	if err != nil {
		t.Fatal(err)
	}
	vec.SetSweepTile(4)
	forceScalar(scal, true)
	st := vec.band.stride
	cur := make([]float64, (order+1)*st)
	for j := 0; j <= order; j++ {
		for i := 0; i < n; i++ {
			cur[j*st+1+i] = rng.Float64()*2 - 1
		}
	}
	var ranges [][2]int
	for lo := 0; lo < n; lo++ {
		if n > 8 && lo >= 5 && lo < n-5 {
			continue
		}
		for hi := lo + 1; hi <= n; hi++ {
			if n <= 8 || hi <= lo+9 || hi >= n-3 {
				ranges = append(ranges, [2]int{lo, hi})
			}
		}
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		for _, nPlans := range []int{0, 1, 3} {
			tag := fmt.Sprintf("order=%d n=%d range [%d,%d) plans=%d", order, n, lo, hi, nPlans)
			seed := rng.Int63()
			run := func(s *Sweep) (next []float64, accs [][]float64) {
				init := rand.New(rand.NewSource(seed))
				next = make([]float64, (order+1)*st)
				fillCanary(next)
				var active []accPair
				for p := 0; p < nPlans; p++ {
					// A canary-filled block with the range's cells drawn
					// from init.
					acc := make([]float64, (order+1)*st)
					fillCanary(acc)
					for j := 0; j <= order; j++ {
						for i := lo; i < hi; i++ {
							acc[j*st+1+i] = init.Float64()
						}
					}
					active = append(active, accPair{w: init.Float64(), acc: acc})
					accs = append(accs, acc)
				}
				s.fuseBlockBand(lo, hi, cur, next, active)
				return next, accs
			}
			gotNext, gotAcc := run(vec)
			wantNext, wantAcc := run(scal)
			for j := 0; j <= order; j++ {
				for _, buf := range append([][]float64{gotNext}, gotAcc...) {
					plane := buf[j*st : (j+1)*st]
					requireCanary(t, tag+" cells before the range", plane[:1+lo])
					requireCanary(t, tag+" cells after the range", plane[1+hi:])
				}
			}
			requireBitsEqual(t, tag+" next", gotNext, wantNext)
			for p := range gotAcc {
				requireBitsEqual(t, fmt.Sprintf("%s accumulator block %d", tag, p), gotAcc[p], wantAcc[p])
			}
		}
	}
}

// requireBitsEqual fails unless got and want hold the same bits.
func requireBitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %x, want %x", tag, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSweepSplitSeamBitwise is the split-tiling seam gate: teams of 2-5
// workers at forced depths 2, 3 and 16, with every partition but one
// exactly at, one row below or one row above the 2·(T−1)·skew width at
// which a split is kept, must reproduce the serial reference sweep bit
// for bit — on the band kernel, on compact CSR with an asymmetric reach
// (lo ≠ hi, so the skew is the larger side) and on a block-tridiagonal
// (QBD) matrix, which auto streams as compact CSR, with SIMD on and off,
// and for one plan, three overlapping plans with zero weights, and a
// plan opening mid-group. The thin partitions sit at the top or at the
// bottom of the rows, so both outer edges and the merging of thin
// partitions into a neighbour are covered, and the ragged final group
// (23 = 16 + 7 iterations) re-keeps splits a full group merged. Each
// team is also interrupted at every group boundary and resumed, which
// must report the boundary and reproduce the uninterrupted run.
func TestSweepSplitSeamBitwise(t *testing.T) {
	const gMax = 23
	rng := rand.New(rand.NewSource(587))
	const n = 554 // room for 5 partitions of 2·15·3 + 1 rows plus a remainder
	type fixture struct {
		name           string
		a              *CSR
		format, stored MatrixFormat
	}
	fixtures := []fixture{
		{"band", bandedFixture(t, rng, n, 1, 1), FormatBand, FormatBand},
		{"csr-lo1-hi3", bandedFixture(t, rng, n, 1, 3), FormatCSR, FormatCSR32},
		{"qbd-b2", qbdFixture(t, rng, n/2, 2), FormatAuto, FormatCSR32},
	}
	if lo, hi := fixtures[1].a.Bandwidth(); lo != 1 || hi != 3 {
		t.Fatalf("csr fixture reach (%d, %d), want (1, 3)", lo, hi)
	}
	d1, d2 := randDiags(rng, n)
	mixes := []struct {
		name          string
		firsts, lasts []int
	}{
		{"one", []int{0}, []int{gMax}},
		{"three", []int{0, 6, 3}, []int{gMax, gMax - 1, 9}},
		{"mid-group", []int{5}, []int{gMax}},
	}
	for _, mix := range mixes {
		weights := make([][]float64, len(mix.firsts))
		for pi := range weights {
			weights[pi] = randWeights(rng, gMax)
			if pi == 2 {
				for k := range weights[pi] {
					if rng.Float64() < 0.2 {
						weights[pi][k] = 0
					}
				}
			}
		}
		for _, fx := range fixtures {
			refMV, refAcc := runReference(t, fx.a, d1, d2, nil, 3, gMax, weights, mix.firsts, mix.lasts)
			for _, T := range []int{2, 3, 16} {
				for workers := 2; workers <= 5; workers++ {
					for _, delta := range []int{-1, 0, 1} {
						for _, thinTop := range []bool{false, true} {
							mk := func(nosimd bool) (*Sweep, int) {
								fs, err := NewSweepWithFormat(fx.a, d1, d2, nil, 3, workers, fx.format)
								if err != nil {
									t.Fatal(err)
								}
								if fs.Format() != fx.stored {
									t.Fatalf("%s resolved format %q", fx.name, fs.Format())
								}
								forceScalar(fs, nosimd)
								fs.SetTemporalBlock(T)
								fs.SetSweepTile(8)
								_, _, skew := fs.resolveBlocking()
								width := 2*(T-1)*skew + delta
								// Replace the cost-balanced partition: workers−1
								// partitions of the probed width, the remainder
								// at the other end.
								for w := 1; w < workers; w++ {
									fs.blocks[w] = w * width
									if thinTop {
										fs.blocks[w] = n - (workers-w)*width
									}
								}
								lendDirtyScratch(fs)
								return fs, skew
							}
							for _, nosimd := range []bool{false, true} {
								fs, skew := mk(nosimd)
								tag := fmt.Sprintf("%s %s T=%d workers=%d width=2·%d·%d%+d top=%v nosimd=%v",
									mix.name, fx.name, T, workers, T-1, skew, delta, thinTop, nosimd)
								cur, plans := newRunState(fs, weights, mix.firsts, mix.lasts)
								mv, err := fs.RunFrom(context.Background(), 1, gMax, cur, plans, 1)
								if err != nil {
									t.Fatalf("%s: %v", tag, err)
								}
								if mv != refMV {
									t.Fatalf("%s: matvecs %d != reference %d", tag, mv, refMV)
								}
								if got := fs.TemporalBlock(); got != T {
									t.Fatalf("%s: resolved depth %d", tag, got)
								}
								requireAccBitwise(t, tag, fs, plans, refAcc)
							}
							if mix.name != "mid-group" {
								continue
							}
							for polls := 2; (polls-1)*T < gMax; polls++ {
								tag := fmt.Sprintf("resume %s T=%d workers=%d width%+d top=%v polls=%d",
									fx.name, T, workers, delta, thinTop, polls)
								rs, _ := mk(false)
								completed := -1
								state := make([][]float64, 4)
								for j := range state {
									state[j] = make([]float64, n)
								}
								rs.SetInterruptHook(func(done int, export func([][]float64)) {
									completed = done
									export(state)
								})
								cur, plans := newRunState(rs, weights, mix.firsts, mix.lasts)
								ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
								if _, err := rs.RunFrom(ctx, 1, gMax, cur, plans, 1); err == nil {
									t.Fatalf("%s: run was not interrupted", tag)
								}
								if completed != (polls-1)*T {
									t.Fatalf("%s: completed = %d, want group boundary %d", tag, completed, (polls-1)*T)
								}
								cont, _ := mk(false)
								if _, err := cont.RunFrom(context.Background(), completed+1, gMax, state, plans, 1); err != nil {
									t.Fatalf("%s: resume: %v", tag, err)
								}
								requireAccBitwise(t, tag, cont, plans, refAcc)
							}
						}
					}
				}
			}
		}
	}
}
