package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bandedFixture builds a random n x n matrix whose entries stay within the
// requested band, with a guaranteed main diagonal so no row is empty.
func bandedFixture(t testing.TB, rng *rand.Rand, n, lo, hi int) *CSR {
	t.Helper()
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if err := b.Add(i, i, rng.Float64()+0.1); err != nil {
			t.Fatal(err)
		}
		for j := i - lo; j <= i+hi; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			if rng.Float64() < 0.7 {
				if err := b.Add(i, j, rng.Float64()*2-1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

func TestBandwidthKnown(t *testing.T) {
	cases := []struct {
		name           string
		dense          []float64
		n              int
		wantLo, wantHi int
	}{
		{"diagonal", []float64{1, 0, 0, 0, 2, 0, 0, 0, 3}, 3, 0, 0},
		{"tridiagonal", []float64{1, 2, 0, 3, 4, 5, 0, 6, 7}, 3, 1, 1},
		{"lower", []float64{1, 0, 0, 2, 1, 0, 0, 3, 1}, 3, 1, 0},
		{"corner", []float64{1, 0, 5, 0, 1, 0, 0, 0, 1}, 3, 0, 2},
		{"empty", make([]float64, 9), 3, 0, 0},
	}
	for _, c := range cases {
		m, err := NewCSRFromDense(c.n, c.n, c.dense)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := m.Bandwidth()
		if lo != c.wantLo || hi != c.wantHi {
			t.Errorf("%s: Bandwidth() = (%d, %d), want (%d, %d)", c.name, lo, hi, c.wantLo, c.wantHi)
		}
	}
}

func TestBandRepKnown(t *testing.T) {
	// 4x4 tridiagonal with a hole at (2,1): the band must pad it with zero.
	dense := []float64{
		2, 3, 0, 0,
		4, 5, 6, 0,
		0, 0, 8, 9,
		0, 0, 10, 11,
	}
	m, err := NewCSRFromDense(4, 4, dense)
	if err != nil {
		t.Fatal(err)
	}
	bd := m.BandRep()
	if bd.N() != 4 {
		t.Fatalf("N() = %d, want 4", bd.N())
	}
	sub, diag, sup := bd.planes()
	for name, c := range map[string]struct{ got, want []float64 }{
		"sub":  {sub, []float64{0, 4, 0, 10}}, // row 0: column -1 padded; hole at (2,1) padded
		"diag": {diag, []float64{2, 5, 8, 11}},
		"sup":  {sup, []float64{3, 6, 9, 0}}, // row 3: column 4 padded
	} {
		for i, want := range c.want {
			if c.got[i] != want {
				t.Errorf("%s[%d] = %g, want %g", name, i, c.got[i], want)
			}
		}
	}
	for i, want := range dense {
		if got := bd.Dense()[i]; got != want {
			t.Errorf("Dense()[%d] = %g, want %g", i, got, want)
		}
	}
	if again := m.BandRep(); again != bd {
		t.Error("BandRep not cached")
	}
}

// requireBandMatchesCSR fails unless m's band representation expands to
// m's dense form and its MatVec reproduces the CSR MatVec on x bit for
// bit.
func requireBandMatchesCSR(t *testing.T, tag string, m *CSR, x []float64) {
	t.Helper()
	bd := m.BandRep()
	if bd == nil {
		t.Fatalf("%s: matrix has no band", tag)
	}
	md, bdd := m.Dense(), bd.Dense()
	for i := range md {
		if md[i] != bdd[i] {
			t.Fatalf("%s: dense mismatch at %d: %g != %g", tag, i, md[i], bdd[i])
		}
	}
	want := make([]float64, len(x))
	got := make([]float64, len(x))
	if err := m.MatVec(x, want); err != nil {
		t.Fatal(err)
	}
	bd.MatVec(x, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: band MatVec[%d] = %x, CSR %x", tag, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBandMatVecBoundary pins the boundary clamping: the first and last
// rows' window cells outside the matrix must be ignored, for the
// tridiagonal window and the diagonal and bidiagonal shapes padded into
// it.
func TestBandMatVecBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range []struct{ n, lo, hi int }{
		{1, 0, 0}, {2, 1, 1}, {5, 1, 0}, {5, 0, 1}, {8, 1, 1}, {6, 0, 0},
	} {
		m := bandedFixture(t, rng, shape.n, shape.lo, shape.hi)
		x := make([]float64, shape.n)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		requireBandMatchesCSR(t, fmt.Sprintf("n=%d lo=%d hi=%d", shape.n, shape.lo, shape.hi), m, x)
	}
}

func TestColIdx32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := bandedFixture(t, rng, 40, 3, 5)
	c32 := m.ColIdx32()
	if c32 == nil {
		t.Fatal("ColIdx32 returned nil for a small matrix")
	}
	if len(c32) != m.NNZ() {
		t.Fatalf("len = %d, want %d", len(c32), m.NNZ())
	}
	for k, j := range m.colIdx {
		if int(c32[k]) != j {
			t.Fatalf("col32[%d] = %d, want %d", k, c32[k], j)
		}
	}
	// Cached: same backing array on the second call.
	if again := m.ColIdx32(); &again[0] != &c32[0] {
		t.Error("ColIdx32 not cached")
	}
}

// TestBandEligible pins the window policy: every square matrix whose
// entries lie within one column of the diagonal qualifies — tridiagonal,
// bidiagonal, diagonal — and nothing wider does, forced or not (the
// eligibility check has no forced mode); non-square never qualifies.
func TestBandEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	for _, shape := range []struct{ lo, hi int }{{1, 1}, {1, 0}, {0, 1}, {0, 0}} {
		m := bandedFixture(t, rng, 500, shape.lo, shape.hi)
		if !m.bandEligible() || m.BandRep() == nil {
			t.Errorf("lo=%d hi=%d matrix not band-eligible", shape.lo, shape.hi)
		}
		if got, _, _, _, _ := resolveStorage(m, FormatBand, 3, false); got != FormatBand {
			t.Errorf("lo=%d hi=%d forced band resolved to %q", shape.lo, shape.hi, got)
		}
	}

	// Pentadiagonal and ring (corner entry) matrices are rejected, and a
	// forced band request on them does not get the band either.
	penta := NewBuilder(100, 100)
	for i := 0; i < 100; i++ {
		for j := max(i-2, 0); j <= min(i+2, 99); j++ {
			_ = penta.Add(i, j, 1)
		}
	}
	b := NewBuilder(100, 100)
	for i := 0; i < 100; i++ {
		_ = b.Add(i, (i+1)%100, 1)
	}
	for name, m := range map[string]*CSR{"pentadiagonal": penta.Build(), "ring": b.Build()} {
		if m.bandEligible() || m.BandRep() != nil {
			t.Errorf("%s matrix band-eligible", name)
		}
		if got, _, _, _, _ := resolveStorage(m, FormatBand, 3, false); got == FormatBand {
			t.Errorf("%s: forced band honored", name)
		}
	}

	rect, err := NewCSRFromDense(2, 3, []float64{1, 0, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rect.bandEligible() {
		t.Error("rectangular matrix band-eligible")
	}
}

func TestParseMatrixFormat(t *testing.T) {
	for in, want := range map[string]MatrixFormat{
		"":      FormatAuto,
		"auto":  FormatAuto,
		"csr":   FormatCSR,
		"csr32": FormatCSR32,
		"band":  FormatBand,
	} {
		got, err := ParseMatrixFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseMatrixFormat(%q) = (%q, %v), want %q", in, got, err, want)
		}
	}
	// csr64, kron and qbd named the deleted native-index CSR storage,
	// matrix-free Kronecker-sum operator and block-tridiagonal storage.
	for _, in := range []string{"dense", "csr64", "kron", "qbd"} {
		if _, err := ParseMatrixFormat(in); !errors.Is(err, ErrUnsupportedFormat) {
			t.Errorf("ParseMatrixFormat(%q) error = %v, want ErrUnsupportedFormat", in, err)
		}
	}
}

func TestResolveStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tri := bandedFixture(t, rng, 200, 1, 1)
	// Every shape wider than the tridiagonal window resolves to compact
	// CSR, block-tridiagonal (QBD) structure included.
	wide := bandedFixture(t, rng, 199, 3, 2)
	blockTri := qbdFixture(t, rng, 50, 4)
	b := NewBuilder(199, 199)
	for i := 0; i < 199; i++ {
		_ = b.Add(i, (i+1)%199, 1)
	}
	ring := b.Build()

	cases := []struct {
		m        *CSR
		in       MatrixFormat
		impulses bool
		want     MatrixFormat
	}{
		{tri, FormatAuto, false, FormatBand},
		{tri, "", false, FormatBand},
		{tri, FormatCSR, false, FormatCSR32},
		{tri, FormatCSR32, false, FormatCSR32},
		{tri, FormatBand, false, FormatBand},
		{tri, FormatAuto, true, FormatCSR32}, // impulse terms ride the CSR pattern
		{tri, FormatBand, true, FormatCSR32},
		{wide, FormatAuto, false, FormatCSR32},
		{wide, FormatBand, false, FormatCSR32}, // outside the window: compact
		{ring, FormatAuto, false, FormatCSR32},
		{ring, FormatBand, false, FormatCSR32},
		{blockTri, FormatAuto, false, FormatCSR32},
		{blockTri, FormatBand, false, FormatCSR32},
	}
	for _, c := range cases {
		got, words, band, col32, err := resolveStorage(c.m, c.in, 3, c.impulses)
		if err != nil {
			t.Fatalf("resolveStorage(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("resolveStorage(%q) = %q, want %q", c.in, got, c.want)
		}
		// One packed buffer: four row-lane planes on the band, P = 4
		// interleaved words per state on compact CSR.
		wantWords := 4 * c.m.rows
		if got == FormatBand {
			wantWords = 4 * bandPlaneStride(c.m.rows)
		}
		if words != wantWords {
			t.Errorf("resolveStorage(%q): %d packed words, want %d", c.in, words, wantWords)
		}
		if (got == FormatBand) != (band != nil) {
			t.Errorf("resolveStorage(%q): band presence %v for format %q", c.in, band != nil, got)
		}
		if (got == FormatCSR32) != (col32 != nil) {
			t.Errorf("resolveStorage(%q): col32 presence %v for format %q", c.in, col32 != nil, got)
		}
	}
	if _, _, _, _, err := resolveStorage(tri, "bogus", 3, false); !errors.Is(err, ErrUnsupportedFormat) {
		t.Errorf("bogus format: err = %v, want ErrUnsupportedFormat", err)
	}
}

// TestBandRoundTripProperty is the band round-trip property test: random
// matrices inside the tridiagonal window (lo, hi ∈ {0, 1}) must
// round-trip CSR -> band -> dense with identical structure, and band
// MatVec must be bitwise identical to CSR MatVec on random vectors.
func TestBandRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		lo := rng.Intn(2)
		hi := rng.Intn(2)
		m := bandedFixture(t, rng, n, lo, hi)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		requireBandMatchesCSR(t, fmt.Sprintf("trial %d lo=%d hi=%d", trial, lo, hi), m, x)
	}
}

// FuzzBandRoundTrip drives the CSR <-> band round-trip from fuzzed shape
// and value seeds: for every shape inside the tridiagonal window, the
// band representation must reproduce CSR MatVec bit for bit.
func FuzzBandRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(1), uint8(1))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(50), uint8(7), uint8(0))
	f.Add(int64(4), uint8(33), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, loRaw, hiRaw uint8) {
		n := 1 + int(nRaw)%64
		lo := int(loRaw) % 2
		hi := int(hiRaw) % 2
		rng := rand.New(rand.NewSource(seed))
		m := bandedFixture(t, rng, n, lo, hi)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		requireBandMatchesCSR(t, fmt.Sprintf("n=%d lo=%d hi=%d", n, lo, hi), m, x)
	})
}

// TestBandPlaneStride is the 4K-aliasing guard of the row-lane layout:
// for sizes whose natural stride sits at or near a multiple of 4 KiB,
// the eight plane starts of the two state buffers (plane p at
// p·bandPlaneStride(n) words) must be pairwise at least 256 bytes apart
// modulo 4096, and every stride must hold the n rows plus two padding
// cells in whole 64-byte lines.
func TestBandPlaneStride(t *testing.T) {
	for _, n := range []int{16383, 16384, 32766, 65534, 131070, 1, 300, 2001} {
		st := bandPlaneStride(n)
		if st < n+2 || st%8 != 0 {
			t.Errorf("n=%d: stride %d words, want >= %d and a multiple of 8", n, st, n+2)
		}
		for p := 0; p < 8; p++ {
			for q := p + 1; q < 8; q++ {
				d := (q*st*8 - p*st*8) % 4096
				if d > 2048 {
					d = 4096 - d
				}
				if d < 256 {
					t.Errorf("n=%d stride %d: planes %d and %d start %d bytes apart mod 4096, want >= 256", n, st, p, q, d)
				}
			}
		}
	}
}
