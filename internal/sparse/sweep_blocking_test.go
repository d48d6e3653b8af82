package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestSweepTemporalBlockingBitwise is the temporal-blocking bitwise gate:
// for tridiagonal-window, wider-banded and block-tridiagonal order-3
// families, every temporal block depth × spatial tile × worker count ×
// format must reproduce the serial reference sweep bit for bit —
// including ragged final groups (gMax not divisible by T) and
// split-tiled teams whose segments hold several blocks each.
func TestSweepTemporalBlockingBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	type fixture struct {
		name    string
		a       *CSR
		d1, d2  []float64
		formats []MatrixFormat
	}
	for trial := 0; trial < 4; trial++ {
		n := 40 + rng.Intn(80)
		a, d1, d2 := bandedSweepFixture(t, rng, n, rng.Intn(2), rng.Intn(2), 3)
		wa, wd1, wd2 := bandedSweepFixture(t, rng, n, 2+rng.Intn(2), 1+rng.Intn(3), 3)
		qn := 4 * (10 + rng.Intn(8))
		q := qbdFixture(t, rng, qn/4, 4)
		qd1, qd2 := randDiags(rng, qn)
		fixtures := []fixture{
			{"band", a, d1, d2, []MatrixFormat{FormatAuto, FormatBand, FormatCSR}},
			{"wide", wa, wd1, wd2, []MatrixFormat{FormatAuto, FormatCSR}},
			{"qbd", q, qd1, qd2, []MatrixFormat{FormatQBD}},
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
			rows := len(fx.d1)
			ref, err := NewSweep(fx.a, fx.d1, fx.d2, nil, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			refCur, refNext, refPlans := newRunState(ref, weights, firsts, lasts)
			refMV, err := ref.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 32)
			if err != nil {
				t.Fatal(err)
			}

			for _, format := range fx.formats {
				for _, tb := range []int{2, 3, 4, 8} {
					for _, tile := range []int{8, 32} {
						for _, workers := range []int{1, 2, 3, 8} {
							fs, err := NewSweepWithFormat(fx.a, fx.d1, fx.d2, nil, 3, workers, format)
							if err != nil {
								t.Fatal(err)
							}
							fs.SetSweepTile(tile)
							fs.SetTemporalBlock(tb)
							cur, next, plans := newRunState(fs, weights, firsts, lasts)
							mv, err := fs.Run(context.Background(), gMax, cur, next, plans, 32)
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
							tag := fx.name + "/" + string(format)
							requireAccBitwise(t, tag, plans, refPlans, 3, rows)
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
			s, err := NewSweep(a, d1, d2, nil, order, workers)
			if err != nil {
				t.Fatal(err)
			}
			s.SetSweepTile(8)
			s.SetTemporalBlock(tblock)
			return s
		}

		full := mk(1, T)
		fullCur, fullNext, fullPlans := newRunState(full, weights, firsts, lasts)
		fullMV, err := full.Run(context.Background(), gMax, fullCur, fullNext, fullPlans, 1)
		if err != nil {
			t.Fatal(err)
		}

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
					cur, next, plans := newRunState(rs, weights, firsts, lasts)
					ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
					if _, err := rs.Run(ctx, gMax, cur, next, plans, 1); err == nil {
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
					for j := range state {
						copy(cur[j], state[j])
					}
					mv, err := cont.RunFrom(context.Background(), completed+1, gMax, cur, next, plans, 1)
					if err != nil {
						t.Fatalf("trial %d w=%d polls %d blocked=%v: resume: %v", trial, workers, polls, resumeBlocked, err)
					}
					if want := fullMV - cont.matVecs(completed); mv != want {
						t.Fatalf("trial %d w=%d polls %d: resumed matvecs %d, want %d", trial, workers, polls, mv, want)
					}
					requireAccBitwise(t, "resume", plans, fullPlans, order, n)
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
				cur, next, plans := newRunState(us, weights, firsts, lasts)
				ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
				if _, err := us.Run(ctx, gMax, cur, next, plans, 1); err == nil {
					t.Fatalf("trial %d w=%d polls %d: unblocked run was not interrupted", trial, workers, polls)
				}
				cont := mk(workers, T)
				for j := range state {
					copy(cur[j], state[j])
				}
				if _, err := cont.RunFrom(context.Background(), completed+1, gMax, cur, next, plans, 1); err != nil {
					t.Fatalf("trial %d w=%d polls %d: blocked resume of unblocked token: %v", trial, workers, polls, err)
				}
				requireAccBitwise(t, "cross-resume", plans, fullPlans, order, n)
			}
		}
	}
}

// TestTemporalBlockResolution pins the blocking policy: what shapes block
// automatically, how forced depths and the width floor resolve, and which
// shapes never block.
func TestTemporalBlockResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	tri, d1, d2 := bandedSweepFixture(t, rng, 300, 1, 1, 3)
	s, err := NewSweep(tri, d1, d2, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	band := func(n, workers int) *Sweep {
		a, bd1, bd2 := bandedSweepFixture(t, rng, n, 1, 1, 3)
		bs, err := NewSweep(a, bd1, bd2, nil, 3, workers)
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
		bs, err := NewSweep(big, bd1, bd2, nil, 3, c.workers)
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
	cs.SetNoSIMD(true)
	if T, _, _ := cs.resolveBlocking(); T != 1 {
		t.Errorf("auto on large CSR state (scalar) resolved T=%d, want 1", T)
	}
	cs.SetTemporalBlock(4)
	if T, _, _ := cs.resolveBlocking(); T != 4 {
		t.Errorf("forced depth on CSR resolved T=%d, want 4", T)
	}
	// A reach beyond the measured ceiling keeps the SIMD auto policy
	// unblocked too.
	cs.SetNoSIMD(false)
	cs.SetTemporalBlock(0)
	wide := bandedFixture(t, rng, temporalBlockMinWords/8, csrAutoBlockMaxSkew+1, 1)
	ws, err := NewSweepWithFormat(wide, bd1, bd2, nil, 3, 1, FormatCSR)
	if err != nil {
		t.Fatal(err)
	}
	if T, _, _ := ws.resolveBlocking(); T != 1 {
		t.Errorf("auto on wide-band CSR state resolved T=%d, want 1", T)
	}

	// Planar shapes (no interleaved kernel) never block: a forced depth on
	// an order-2 run must still report an unblocked sweep.
	ps, err := NewSweep(tri, d1, d2, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetTemporalBlock(8)
	gMax := 6
	w := randWeights(rng, gMax)
	cur, next, plans := newRunState(ps, [][]float64{w}, []int{0}, []int{gMax})
	if _, err := ps.Run(context.Background(), gMax, cur, next, plans, 32); err != nil {
		t.Fatal(err)
	}
	if got := ps.TemporalBlock(); got != 1 {
		t.Errorf("planar run resolved depth %d, want 1", got)
	}
}

// TestSweepRowLaneBitwise is the row-lane band kernel's bitwise gate:
// for sizes around every 4-row group edge (n mod 4 = 0..3, a single
// row, and the 2,001-row midsize shape), every blocking mode (off, auto,
// forced depths 2, 3 and 16), block width, plan mix and SIMD setting must
// reproduce the serial reference sweep bit for bit, on one worker and on
// a split-tiled 2-worker team alike. The plan mixes cover a run
// whose only plan opens at the last iteration with weight 1 (every
// earlier iteration accumulates nothing, and the final accumulator is
// the swept state itself), one plan opening at iteration 6 — inside a
// group for every depth tested — and three overlapping plans with zero
// weights sprinkled in (the unaccumulated kernel plus per-plan passes).
// Every run gets NaN-filled lent scratch, so an unzeroed padding cell
// shows.
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
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 129, 257, 2001} {
		a, d1, d2 := bandedSweepFixture(t, rng, n, 1, 1, 3)
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
			ref, err := NewSweep(a, d1, d2, nil, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			refCur, refNext, refPlans := newRunState(ref, weights, mix.firsts, mix.lasts)
			refMV, err := ref.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, nosimd := range []bool{false, true} {
				for _, tb := range []int{1, 0, 2, 3, 16} {
					for _, tile := range []int{2, 5, 128} {
						for _, workers := range []int{1, 2} {
							fs, err := NewSweepWithFormat(a, d1, d2, nil, 3, workers, FormatBand)
							if err != nil {
								t.Fatal(err)
							}
							fs.SetNoSIMD(nosimd)
							fs.SetTemporalBlock(tb)
							fs.SetSweepTile(tile)
							lendDirtyScratch(fs)
							tag := fmt.Sprintf("n=%d %s nosimd=%v T=%d W=%d workers=%d", n, mix.name, nosimd, tb, tile, workers)
							cur, next, plans := newRunState(fs, weights, mix.firsts, mix.lasts)
							mv, err := fs.Run(context.Background(), gMax, cur, next, plans, 1)
							if err != nil {
								t.Fatalf("%s: %v", tag, err)
							}
							if mv != refMV {
								t.Fatalf("%s: matvecs %d != reference %d", tag, mv, refMV)
							}
							if tb > 1 && fs.TemporalBlock() != tb {
								t.Fatalf("%s: resolved depth %d", tag, fs.TemporalBlock())
							}
							requireAccBitwise(t, tag, plans, refPlans, 3, n)
						}
					}
				}
			}
		}
	}
}

// TestSweepSplitSeamBitwise is the split-tiling seam gate: teams of 2-5
// workers at forced depths 2, 3 and 16, with every partition but one
// exactly at, one row below or one row above the 2·(T−1)·skew width at
// which a split is kept, must reproduce the serial reference sweep bit
// for bit — on the band kernel, on compact CSR with an asymmetric reach
// (lo ≠ hi, so the skew is the larger side) and on QBD, with SIMD on and
// off, and for one plan, three overlapping plans with zero weights, and a
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
		{"qbd-b2", qbdFixture(t, rng, n/2, 2), FormatQBD, FormatQBD},
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
			ref, err := NewSweep(fx.a, d1, d2, nil, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			refCur, refNext, refPlans := newRunState(ref, weights, mix.firsts, mix.lasts)
			refMV, err := ref.RunReference(context.Background(), gMax, refCur, refNext, refPlans, 1)
			if err != nil {
				t.Fatal(err)
			}
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
								fs.SetNoSIMD(nosimd)
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
								cur, next, plans := newRunState(fs, weights, mix.firsts, mix.lasts)
								mv, err := fs.Run(context.Background(), gMax, cur, next, plans, 1)
								if err != nil {
									t.Fatalf("%s: %v", tag, err)
								}
								if mv != refMV {
									t.Fatalf("%s: matvecs %d != reference %d", tag, mv, refMV)
								}
								if got := fs.TemporalBlock(); got != T {
									t.Fatalf("%s: resolved depth %d", tag, got)
								}
								requireAccBitwise(t, tag, plans, refPlans, 3, n)
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
								cur, next, plans := newRunState(rs, weights, mix.firsts, mix.lasts)
								ctx := &countdownCtx{Context: context.Background(), polls: polls - 1}
								if _, err := rs.Run(ctx, gMax, cur, next, plans, 1); err == nil {
									t.Fatalf("%s: run was not interrupted", tag)
								}
								if completed != (polls-1)*T {
									t.Fatalf("%s: completed = %d, want group boundary %d", tag, completed, (polls-1)*T)
								}
								for j := range state {
									copy(cur[j], state[j])
								}
								cont, _ := mk(false)
								if _, err := cont.RunFrom(context.Background(), completed+1, gMax, cur, next, plans, 1); err != nil {
									t.Fatalf("%s: resume: %v", tag, err)
								}
								requireAccBitwise(t, tag, plans, refPlans, 3, n)
							}
						}
					}
				}
			}
		}
	}
}
