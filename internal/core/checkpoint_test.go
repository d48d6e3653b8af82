package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
)

// pollCountdownCtx reports cancellation after Err has been polled a fixed
// number of times, so tests can interrupt a solve at an exact iteration
// barrier. The solver polls once on entry and then once per CancelStride
// iterations.
type pollCountdownCtx struct {
	context.Context
	polls int
}

func (c *pollCountdownCtx) Err() error {
	if c.polls <= 0 {
		return context.DeadlineExceeded
	}
	c.polls--
	return nil
}

// interruptSolve runs a checkpoint-enabled solve that is cancelled after
// the given number of context polls and returns the captured checkpoint.
func interruptSolve(t *testing.T, m *Model, times []float64, order, polls int, opts Options) *Checkpoint {
	t.Helper()
	opts.Checkpoint = true
	opts.CancelStride = 1
	ctx := &pollCountdownCtx{Context: context.Background(), polls: polls}
	_, err := m.AccumulatedRewardAtContext(ctx, times, order, &opts)
	var ir *Interrupted
	if !errors.As(err, &ir) {
		t.Fatalf("polls=%d: want *Interrupted, got %v", polls, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Interrupted must unwrap to the context error, got %v", err)
	}
	return ir.Checkpoint
}

func sameResults(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for idx := range want {
		for j := range want[idx].VectorMoments {
			for i := range want[idx].VectorMoments[j] {
				g := want[idx].VectorMoments[j][i]
				w := got[idx].VectorMoments[j][i]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: result %d vm[%d][%d] = %x, want %x",
						label, idx, j, i, math.Float64bits(w), math.Float64bits(g))
				}
			}
		}
		for j := range want[idx].Moments {
			if math.Float64bits(got[idx].Moments[j]) != math.Float64bits(want[idx].Moments[j]) {
				t.Fatalf("%s: result %d moment %d mismatch", label, idx, j)
			}
		}
	}
}

// TestSolveResumeBitwise is the solver-level resume gate: a solve
// interrupted at the first, a middle, and the last iteration barrier and
// resumed from its (serialized and re-decoded) checkpoint must produce
// moments bitwise identical to the uninterrupted solve — across the
// reference kernel and fused worker teams.
func TestSolveResumeBitwise(t *testing.T) {
	m := heavyModel(t)
	times := []float64{0, 0.05, 0.12}
	const order = 3
	for _, workers := range []int{-1, 1, 3} {
		opts := Options{SweepWorkers: workers}
		full, err := m.AccumulatedRewardAt(times, order, &opts)
		if err != nil {
			t.Fatal(err)
		}
		g := full[len(full)-1].Stats.G
		if g < 3 {
			t.Fatalf("fixture too small: G = %d", g)
		}
		// polls=1 interrupts before iteration 1 (completed=0); polls=g
		// interrupts before the final iteration (completed=g-1).
		for _, polls := range []int{1, g/2 + 1, g} {
			cp := interruptSolve(t, m, times, order, polls, opts)
			if cp.Completed != polls-1 {
				t.Fatalf("workers=%d polls=%d: completed=%d", workers, polls, cp.Completed)
			}
			if cp.GMax != g {
				t.Fatalf("workers=%d: checkpoint GMax=%d, want %d", workers, cp.GMax, g)
			}
			decoded, err := DecodeCheckpoint(cp.Encode())
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			ropts := Options{SweepWorkers: workers, Resume: decoded}
			resumed, err := m.AccumulatedRewardAt(times, order, &ropts)
			if err != nil {
				t.Fatalf("resume workers=%d polls=%d: %v", workers, polls, err)
			}
			sameResults(t, "resume", resumed, full)
			if resumed[1].Stats.MatVecs != full[1].Stats.MatVecs {
				t.Fatalf("resumed MatVecs %d, want %d", resumed[1].Stats.MatVecs, full[1].Stats.MatVecs)
			}
		}
	}
}

// TestSolveResumeAutoBlockedBand extends the resume gate to the
// production midsize shape: a 2,001-state tridiagonal solve under
// default Options runs the 1-worker row-lane band kernel auto-blocked in
// L1-sized groups — at order 3 and at order 12, whose exported state
// spans all thirteen planes — observes cancellation only at group
// boundaries, and must resume from the captured checkpoint — blocked
// again, or on the reference oracle — bitwise identical to the
// uninterrupted solve.
func TestSolveResumeAutoBlockedBand(t *testing.T) {
	m := largeTridiagModel(t, 2_001)
	times := []float64{0, 2, 8}
	for _, order := range []int{3, 12} {
		full, err := m.AccumulatedRewardAt(times, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := full[1].Stats
		if st.MatrixFormat != "band" || st.TemporalBlock != 16 {
			t.Fatalf("order %d: auto solve ran format %q at depth %d, want band at 16", order, st.MatrixFormat, st.TemporalBlock)
		}
		// The solver polls once on entry and the blocked sweep once per
		// group, so polls = 1+p interrupts at the p-th group boundary.
		for _, polls := range []int{2, 3, st.G / 16} {
			cp := interruptSolve(t, m, times, order, polls, Options{})
			if cp.Completed == 0 || cp.Completed%16 != 0 {
				t.Fatalf("order %d polls=%d: completed=%d, want a positive multiple of the depth 16", order, polls, cp.Completed)
			}
			decoded, err := DecodeCheckpoint(cp.Encode())
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			for _, workers := range []int{0, -1} {
				resumed, err := m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: workers, Resume: decoded})
				if err != nil {
					t.Fatalf("resume order %d polls=%d workers=%d: %v", order, polls, workers, err)
				}
				sameResults(t, fmt.Sprintf("resume order %d polls=%d workers=%d", order, polls, workers), resumed, full)
			}
		}
	}
}

// TestSolveResumeRetiredQBDFormat: a checkpoint records the storage
// format of the interrupted run for information only, so a token whose
// recorded format is "qbd" — the block-tridiagonal storage the sweep no
// longer has — still decodes and resumes on a block-tridiagonal model,
// which now streams compact CSR, bitwise identical to the uninterrupted
// solve.
func TestSolveResumeRetiredQBDFormat(t *testing.T) {
	m := denseQBDModel(t, 10, 3)
	times := []float64{0, 0.3, 1}
	const order = 3
	full, err := m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := full[1].Stats.MatrixFormat; got != "csr32" {
		t.Fatalf("auto solve streamed %q, want csr32", got)
	}
	cp := interruptSolve(t, m, times, order, full[1].Stats.G/2, Options{SweepWorkers: 1})
	cp.Format = "qbd"
	decoded, err := DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if decoded.Format != "qbd" {
		t.Fatalf("decoded Format = %q, want qbd", decoded.Format)
	}
	for _, workers := range []int{0, 2, -1} {
		resumed, err := m.AccumulatedRewardAt(times, order, &Options{SweepWorkers: workers, Resume: decoded})
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		sameResults(t, fmt.Sprintf("resume workers=%d", workers), resumed, full)
	}
}

// TestCheckpointCodec pins the snapshot serialization: decode inverts
// encode exactly, and corruption anywhere — header, state bits, digest,
// truncation — is rejected with ErrCheckpoint.
func TestCheckpointCodec(t *testing.T) {
	m := heavyModel(t)
	cp := interruptSolve(t, m, []float64{0.08}, 2, 5, Options{})
	blob := cp.Encode()
	got, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order != cp.Order || got.N != cp.N || got.Completed != cp.Completed ||
		got.GMax != cp.GMax || got.Workers != cp.Workers || got.Format != cp.Format {
		t.Fatalf("decoded header %+v != %+v", got, cp)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Q, cp.Q) || !same(got.D, cp.D) || !same(got.Shift, cp.Shift) || !same(got.Epsilon, cp.Epsilon) {
		t.Fatal("decoded uniformization params differ")
	}
	for j := range cp.State {
		for i := range cp.State[j] {
			if !same(got.State[j][i], cp.State[j][i]) {
				t.Fatalf("state[%d][%d] differs", j, i)
			}
		}
	}
	for idx := range cp.Acc {
		if (got.Acc[idx] == nil) != (cp.Acc[idx] == nil) {
			t.Fatalf("acc presence %d differs", idx)
		}
		for j := range cp.Acc[idx] {
			for i := range cp.Acc[idx][j] {
				if !same(got.Acc[idx][j][i], cp.Acc[idx][j][i]) {
					t.Fatalf("acc[%d][%d][%d] differs", idx, j, i)
				}
			}
		}
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"flip magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flip header":   func(b []byte) []byte { b[10] ^= 0x01; return b },
		"flip state":    func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b },
		"flip digest":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncate tail": func(b []byte) []byte { return b[:len(b)-7] },
		"truncate deep": func(b []byte) []byte { return b[:20] },
		"empty":         func(b []byte) []byte { return nil },
	} {
		bad := mutate(append([]byte(nil), blob...))
		if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: want ErrCheckpoint, got %v", name, err)
		}
	}
}

// TestCheckpointResumeMismatch pins the resume validation: a checkpoint
// presented against a request with different parameters — or against a
// different model — is rejected with ErrCheckpoint, never silently solved.
func TestCheckpointResumeMismatch(t *testing.T) {
	m := heavyModel(t)
	times := []float64{0.08}
	cp := interruptSolve(t, m, times, 2, 5, Options{})

	cases := []struct {
		name  string
		times []float64
		order int
		opts  Options
	}{
		{"different time", []float64{0.09}, 2, Options{Resume: cp}},
		{"different order", times, 3, Options{Resume: cp}},
		{"different epsilon", times, 2, Options{Epsilon: 1e-6, Resume: cp}},
	}
	for _, c := range cases {
		if _, err := m.AccumulatedRewardAt(c.times, c.order, &c.opts); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: want ErrCheckpoint, got %v", c.name, err)
		}
	}

	other := onOffSource(t, 1, 2, 1.5, 0.5)
	if _, err := other.AccumulatedRewardAt(times, 2, &Options{Resume: cp}); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("different model: want ErrCheckpoint, got %v", err)
	}

	// Tampered Completed beyond the sweep must be rejected too.
	bad := *cp
	bad.Completed = bad.GMax
	if _, err := m.AccumulatedRewardAt(times, 2, &Options{Resume: &bad}); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("completed=GMax: want ErrCheckpoint, got %v", err)
	}
}

// ck2Token is one recorded SOMRMCK2 resume token: the model, time grid,
// order and worker setting of the interrupted solve, and the context
// poll it was cancelled at.
type ck2Token struct {
	file   string
	model  func(testing.TB) *Model
	times  []float64
	order  int
	opts   Options
	polls  int
	format string // the Format the token records
}

// ck2Tokens are the tokens under testdata/ recorded while the sweep still
// had the planar fused layout and the csr64 reference storage: a solve on
// the serial reference (its Format reads "csr64"), an impulse model (which
// then ran the planar loop on the band storage) and an order-4 compact-CSR
// solve (the planar loop on csr32).
var ck2Tokens = []ck2Token{
	{"checkpoint_ck2_reference.bin", func(tb testing.TB) *Model { return denseQBDModel(tb, 8, 4) },
		[]float64{0, 0.4, 1.1}, 3, Options{SweepWorkers: -1}, 9, "csr64"},
	{"checkpoint_ck2_impulse.bin", func(tb testing.TB) *Model { return ladderFixtures(tb)["impulse"] },
		[]float64{0, 0.3, 1.2}, 3, Options{}, 7, "band"},
	{"checkpoint_ck2_csr_order4.bin", func(tb testing.TB) *Model { return pentadiagonalModel(tb, 50) },
		[]float64{0.2, 0.9}, 4, Options{SweepWorkers: 1}, 6, "csr32"},
}

// TestCheckpointCK2Compat: the recorded SOMRMCK2 tokens still decode,
// and each resumes — on the serial reference, the automatic policy and a
// 2-worker team — bitwise identical to the uninterrupted solve of today's
// sweep, whatever storage and layout the capturing run used.
func TestCheckpointCK2Compat(t *testing.T) {
	for _, tk := range ck2Tokens {
		blob, err := os.ReadFile("testdata/" + tk.file)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("%s: %v", tk.file, err)
		}
		if cp.Format != tk.format || cp.Completed != tk.polls-1 || cp.Order != tk.order {
			t.Fatalf("%s: token records format %q, completed %d, order %d; want %q, %d, %d",
				tk.file, cp.Format, cp.Completed, cp.Order, tk.format, tk.polls-1, tk.order)
		}
		m := tk.model(t)
		full, err := m.AccumulatedRewardAt(tk.times, tk.order, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{-1, 0, 2} {
			resumed, err := m.AccumulatedRewardAt(tk.times, tk.order, &Options{SweepWorkers: workers, Resume: cp})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tk.file, workers, err)
			}
			sameResults(t, fmt.Sprintf("%s workers=%d", tk.file, workers), resumed, full)
		}
	}
}
