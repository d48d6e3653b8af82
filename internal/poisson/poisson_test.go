package poisson

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPMFKnown(t *testing.T) {
	cases := []struct {
		k      int
		lambda float64
		want   float64
	}{
		{0, 1, math.Exp(-1)},
		{1, 1, math.Exp(-1)},
		{2, 1, math.Exp(-1) / 2},
		{0, 0, 1},
		{3, 0, 0},
		{5, 2.5, math.Exp(-2.5) * math.Pow(2.5, 5) / 120},
	}
	for _, c := range cases {
		got := PMF(c.k, c.lambda)
		if math.Abs(got-c.want) > 1e-15*(1+c.want) {
			t.Errorf("PMF(%d, %g) = %.16g, want %.16g", c.k, c.lambda, got, c.want)
		}
	}
}

func TestPMFNegativeK(t *testing.T) {
	if got := PMF(-1, 2); got != 0 {
		t.Errorf("PMF(-1, 2) = %g, want 0", got)
	}
	if got := LogPMF(-1, 2); !math.IsInf(got, -1) {
		t.Errorf("LogPMF(-1, 2) = %g, want -Inf", got)
	}
}

func TestLogPMFHugeLambdaNoUnderflow(t *testing.T) {
	// The paper's large example: qt = 40,000. Near the mode the pmf is
	// ~1/sqrt(2 pi qt) and must come out finite and positive.
	lambda := 40000.0
	got := PMF(40000, lambda)
	want := 1 / math.Sqrt(2*math.Pi*lambda)
	if got <= 0 || math.Abs(got-want)/want > 0.01 {
		t.Errorf("PMF at mode = %g, want ~%g", got, want)
	}
	// k = 0 underflows to zero gracefully (not NaN).
	if got := PMF(0, lambda); got != 0 {
		t.Errorf("PMF(0, 40000) = %g, want underflow to 0", got)
	}
}

func TestPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 10, 300} {
		var sum float64
		limit := int(lambda + 60*math.Sqrt(lambda+1))
		for k := 0; k <= limit; k++ {
			sum += PMF(k, lambda)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("lambda=%g: pmf sums to %.15g", lambda, sum)
		}
	}
}

func TestTailProbComplementsCDF(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 42, 1000} {
		for _, g := range []int{0, 1, int(lambda), int(2 * lambda)} {
			tail := TailProb(g, lambda)
			cdf := CDF(g, lambda)
			if math.Abs(tail+cdf-1) > 1e-12 {
				t.Errorf("lambda=%g g=%d: tail+cdf = %.15g", lambda, g, tail+cdf)
			}
		}
	}
}

func TestTailProbEdge(t *testing.T) {
	if got := TailProb(-1, 3); got != 1 {
		t.Errorf("TailProb(-1) = %g, want 1", got)
	}
	if got := TailProb(5, 0); got != 0 {
		t.Errorf("TailProb with lambda=0 = %g, want 0", got)
	}
	if got := CDF(-1, 3); got != 0 {
		t.Errorf("CDF(-1) = %g, want 0", got)
	}
}

func TestTailProbMonotoneProperty(t *testing.T) {
	f := func(l uint8, g uint8) bool {
		lambda := float64(l%100) + 0.5
		gi := int(g % 120)
		return TailProb(gi+1, lambda) <= TailProb(gi, lambda)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogTailProbMatchesDirect(t *testing.T) {
	for _, lambda := range []float64{1, 17, 250} {
		for _, g := range []int{0, 5, int(lambda) + 3, int(lambda) + 30} {
			direct := TailProb(g, lambda)
			if direct == 0 {
				continue
			}
			got := LogTailProb(g, lambda)
			if math.Abs(got-math.Log(direct)) > 1e-9 {
				t.Errorf("lambda=%g g=%d: LogTailProb = %g, want %g", lambda, g, got, math.Log(direct))
			}
		}
	}
}

func TestLogTailProbUnderflowRegime(t *testing.T) {
	// Far tail of Poisson(10): at g = 400 the tail is ~1e-600, far below
	// float64 range; the log version must return a finite negative value
	// that upper-bounds the true tail.
	got := LogTailProb(400, 10)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogTailProb = %v", got)
	}
	if got > -600 {
		t.Errorf("LogTailProb(400, 10) = %g, expected < -600 (true tail ~ 1e-646)", got)
	}
	// Must be an upper bound on the leading term.
	if lead := LogPMF(401, 10); got < lead {
		t.Errorf("LogTailProb %g below leading term %g", got, lead)
	}
}

func TestLogTailProbEdge(t *testing.T) {
	if got := LogTailProb(-1, 5); got != 0 {
		t.Errorf("LogTailProb(-1) = %g, want 0 (= ln 1)", got)
	}
	if got := LogTailProb(3, 0); !math.IsInf(got, -1) {
		t.Errorf("LogTailProb lambda=0 = %g, want -Inf", got)
	}
}

func TestWindowCoversMass(t *testing.T) {
	for _, lambda := range []float64{0.3, 2, 50, 5000} {
		w, err := Window(lambda, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range w.Prob {
			sum += p
		}
		if sum < 1-1e-9 {
			t.Errorf("lambda=%g: window keeps %.12g mass", lambda, sum)
		}
		if w.MassDropped > 1e-9 {
			t.Errorf("lambda=%g: dropped %g", lambda, w.MassDropped)
		}
		// Window entries must match the pmf.
		for i, p := range w.Prob {
			if math.Abs(p-PMF(w.Left+i, lambda)) > 1e-15 {
				t.Errorf("lambda=%g: window[%d] mismatch", lambda, i)
				break
			}
		}
	}
}

func TestWindowLambdaZero(t *testing.T) {
	w, err := Window(0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Left != 0 || len(w.Prob) != 1 || w.Prob[0] != 1 {
		t.Errorf("Window(0) = %+v", w)
	}
}

func TestWindowBadArgs(t *testing.T) {
	if _, err := Window(-1, 1e-9); !errors.Is(err, ErrBadRate) {
		t.Errorf("negative lambda: %v", err)
	}
	if _, err := Window(math.NaN(), 1e-9); !errors.Is(err, ErrBadRate) {
		t.Errorf("NaN lambda: %v", err)
	}
	if _, err := Window(1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Window(1, 1); err == nil {
		t.Error("eps=1 accepted")
	}
}

func TestWindowLeftTruncationLargeLambda(t *testing.T) {
	w, err := Window(10000, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Left == 0 {
		t.Error("large lambda should left-truncate the window")
	}
	if w.Left > 10000 {
		t.Errorf("left edge %d beyond the mode", w.Left)
	}
}

func TestPMFWindow(t *testing.T) {
	for _, lambda := range []float64{0.3, 7, 56, 1000} {
		g := int(lambda) + 60
		prob, first, last := PMFWindow(lambda, g)
		if len(prob) != g+1 {
			t.Fatalf("lambda=%g: len %d, want %d", lambda, len(prob), g+1)
		}
		for k := 0; k <= g; k++ {
			want := PMF(k, lambda)
			if math.Float64bits(prob[k]) != math.Float64bits(want) {
				t.Fatalf("lambda=%g k=%d: %g != PMF %g", lambda, k, prob[k], want)
			}
			if (prob[k] > 0) != (k >= first && k <= last) {
				t.Fatalf("lambda=%g k=%d: p=%g outside window [%d,%d]", lambda, k, prob[k], first, last)
			}
		}
	}
}

func TestPMFWindowLargeLambdaClipsHead(t *testing.T) {
	// At lambda = 40,000 (the paper's large example) the pmf head
	// underflows to exactly zero in float64; the window must skip it.
	prob, first, last := PMFWindow(40000, 41000)
	if first < 30000 {
		t.Errorf("first = %d, expected the underflowed head clipped", first)
	}
	if last != 41000 {
		t.Errorf("last = %d, want 41000 (pmf still positive at g)", last)
	}
	if prob[first-1] != 0 || prob[first] == 0 {
		t.Errorf("window edge wrong: p[%d]=%g p[%d]=%g", first-1, prob[first-1], first, prob[first])
	}
}

func TestPMFWindowAllZero(t *testing.T) {
	// g = 0 at enormous lambda: every entry underflows, last < first
	// marks the window empty.
	_, first, last := PMFWindow(1e6, 3)
	if last >= first {
		t.Errorf("expected empty window, got [%d,%d]", first, last)
	}
}

// TestTableMatchesDirect: a tabulating Table answers every query with the
// bits of the untabulated functions, whatever order the queries come in —
// head sums resumed from stored state, tail sums started from tabulated
// or (past the capacity) direct pmf values, and windows that must grow
// the table; a seeded random probe order resumes the head sums from
// every stored position.
func TestTableMatchesDirect(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{0.3, 7, 56, 730, 4000, 1234.5, 97.3} {
		for _, kmax := range []int{0, 10, int(lambda) + 40} {
			var tab Table
			tab.Reset(lambda, kmax)
			probes := []int{int(lambda) + 25, 0, int(lambda) / 2, -1, int(lambda) - 1, 3, int(lambda) / 3, int(2*lambda) + 9, int(lambda)}
			for _, g := range probes {
				if got, want := tab.TailProb(g), TailProb(g, lambda); !same(got, want) {
					t.Fatalf("lambda=%g kmax=%d: TailProb(%d) = %v, direct %v", lambda, kmax, g, got, want)
				}
				if got, want := tab.LogTailProb(g), LogTailProb(g, lambda); !same(got, want) {
					t.Fatalf("lambda=%g kmax=%d: LogTailProb(%d) = %v, direct %v", lambda, kmax, g, got, want)
				}
				if got, want := tab.PMF(g), PMF(g, lambda); !same(got, want) {
					t.Fatalf("lambda=%g kmax=%d: PMF(%d) = %v, direct %v", lambda, kmax, g, got, want)
				}
			}
			for i := 0; i < 200; i++ {
				g := rng.Intn(int(2*lambda) + 30)
				if got, want := tab.TailProb(g), TailProb(g, lambda); !same(got, want) {
					t.Fatalf("lambda=%g kmax=%d: TailProb(%d) = %v, direct %v", lambda, kmax, g, got, want)
				}
			}
			g := int(lambda) + 60
			prob, first, last := tab.Window(g)
			wp, wf, wl := PMFWindow(lambda, g)
			if first != wf || last != wl || len(prob) != len(wp) {
				t.Fatalf("lambda=%g kmax=%d: window [%d,%d] len %d, direct [%d,%d] len %d", lambda, kmax, first, last, len(prob), wf, wl, len(wp))
			}
			for k := range wp {
				if !same(prob[k], wp[k]) {
					t.Fatalf("lambda=%g kmax=%d: weight %d = %v, direct %v", lambda, kmax, k, prob[k], wp[k])
				}
			}
		}
	}
}
