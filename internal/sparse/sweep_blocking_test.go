package sparse

import (
	"context"
	"math/rand"
	"testing"
)

// TestSweepTemporalBlockingBitwise is the temporal-blocking bitwise gate:
// for tridiagonal-window, wider-banded and block-tridiagonal order-3
// families, every temporal block depth × spatial tile × worker count ×
// format must reproduce the serial reference sweep bit for bit —
// including ragged final groups (gMax not divisible by T) and
// wavefront-parallel schedules with more blocks than workers.
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

	// Auto leaves small states unblocked: both buffers already fit in cache.
	if T, _, _ := s.resolveBlocking(); T != 1 {
		t.Errorf("auto on small state resolved T=%d, want 1", T)
	}
	// Off switches.
	for _, off := range []int{1, -3} {
		s.SetTemporalBlock(off)
		if T, _, _ := s.resolveBlocking(); T != 1 {
			t.Errorf("tblock=%d resolved T=%d, want 1", off, T)
		}
	}
	// Forced depths are honored regardless of size, with the width floor
	// W >= 2·skew enforced over any caller tile.
	s.SetTemporalBlock(4)
	if T, W, skew := s.resolveBlocking(); T != 4 || skew != 1 || W != sweepTileDefault {
		t.Errorf("forced resolved (T=%d, W=%d, skew=%d), want (4, %d, 1)", T, W, skew, sweepTileDefault)
	}
	s.SetSweepTile(1)
	if _, W, _ := s.resolveBlocking(); W != 2 {
		t.Errorf("tile=1 skew=1 resolved W=%d, want floor 2", W)
	}
	// Requested depths clamp at maxTemporalBlock.
	s.SetTemporalBlock(maxTemporalBlock + 10)
	if T, _, _ := s.resolveBlocking(); T != maxTemporalBlock {
		t.Errorf("oversized request resolved T=%d, want %d", T, maxTemporalBlock)
	}

	// Auto blocks large banded states, clamped so the halo shift stays
	// under half a block.
	big := bandedFixture(t, rng, temporalBlockMinWords/8, 1, 1)
	bd1, bd2 := make([]float64, big.rows), make([]float64, big.rows)
	bs, err := NewSweep(big, bd1, bd2, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if T, W, skew := bs.resolveBlocking(); T != temporalBlockDefault || W != sweepTileDefault || skew != 1 {
		t.Errorf("auto on large state resolved (T=%d, W=%d, skew=%d), want (%d, %d, 1)",
			T, W, skew, temporalBlockDefault, sweepTileDefault)
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
