package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: somrm/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweep/N100001/reference         	      10	 345862450 ns/op	16059544 B/op	      40 allocs/op
BenchmarkSweep/N100001/fused-single      	      10	 157680519 ns/op	22465720 B/op	      43 allocs/op
BenchmarkSweep/N100001/fused-auto-8      	      12	 145756858 ns/op
PASS
ok  	somrm/internal/core	21.110s
`

func TestParse(t *testing.T) {
	// The sample was recorded on a GOMAXPROCS=8 machine (note the -8
	// suffix on fused-auto), so parse with that procs value regardless of
	// where the test runs.
	rep, err := parseWithProcs(strings.NewReader(sampleOutput), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" {
		t.Errorf("header: goos=%q goarch=%q", rep.GoOS, rep.GoArch)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu header: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	ref := rep.Benchmarks[0]
	if ref.Name != "BenchmarkSweep/N100001/reference" || ref.Procs != 1 {
		t.Errorf("reference: name=%q procs=%d", ref.Name, ref.Procs)
	}
	if ref.Iterations != 10 || ref.NsPerOp != 345862450 {
		t.Errorf("reference: iters=%d ns=%g", ref.Iterations, ref.NsPerOp)
	}
	if ref.BytesPerOp == nil || *ref.BytesPerOp != 16059544 {
		t.Errorf("reference: bytes=%v", ref.BytesPerOp)
	}
	if ref.AllocsPerOp == nil || *ref.AllocsPerOp != 40 {
		t.Errorf("reference: allocs=%v", ref.AllocsPerOp)
	}

	auto := rep.Benchmarks[2]
	if auto.Name != "BenchmarkSweep/N100001/fused-auto" || auto.Procs != 8 {
		t.Errorf("procs suffix not split: name=%q procs=%d", auto.Name, auto.Procs)
	}
	if auto.BytesPerOp != nil {
		t.Errorf("no -benchmem columns, but bytes=%v", auto.BytesPerOp)
	}
}

func TestParsePreservesNumericNameSuffix(t *testing.T) {
	// On a GOMAXPROCS=1 machine the testing package appends no -P suffix,
	// so a trailing "-1" is part of the benchmark name (e.g. the
	// per-worker-count sweep variants) and must survive parsing intact.
	const out = `BenchmarkSweep/N100001/workers-1         	      10	 121100000 ns/op
BenchmarkSweep/N100001/fused-band        	      10	 108060000 ns/op
`
	rep, err := parseWithProcs(strings.NewReader(out), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSweep/N100001/workers-1" {
		t.Errorf("name %q: trailing -1 was stripped", b.Name)
	}
	if b.Procs != 1 {
		t.Errorf("procs = %d, want 1", b.Procs)
	}
}

func TestParseStripsOnlyExactProcsSuffix(t *testing.T) {
	// With GOMAXPROCS=8 every name gains a "-8" tail; only that exact
	// suffix is split off, even from names ending in other digits, and a
	// name that IS the suffix ("Benchmark-8") is left alone.
	const out = `BenchmarkSweep/workers-4-8         	      10	  61100000 ns/op
BenchmarkSweep/workers-8-8         	      10	  41100000 ns/op
BenchmarkSweep/workers-16-8        	      10	  31100000 ns/op
`
	rep, err := parseWithProcs(strings.NewReader(out), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkSweep/workers-4", "BenchmarkSweep/workers-8", "BenchmarkSweep/workers-16"}
	for i, b := range rep.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("benchmark %d: name %q, want %q", i, b.Name, want[i])
		}
		if b.Procs != 8 {
			t.Errorf("benchmark %d: procs = %d, want 8", i, b.Procs)
		}
	}
}

func TestParseNoBenchLines(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok pkg 1s\n")); err == nil {
		t.Error("expected an error on input without benchmark lines")
	}
}

func writeReport(t *testing.T, path string, rep *Report) {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func benchNs(name string, ns float64) BenchResult {
	return BenchResult{Name: name, Procs: 1, Iterations: 10, NsPerOp: ns}
}

func TestCompareReports(t *testing.T) {
	oldRep := &Report{Commit: "aaa", Benchmarks: []BenchResult{
		benchNs("BenchmarkSweep/N100001/reference", 300e6),
		benchNs("BenchmarkSweep/N100001/fused-single", 150e6),
		benchNs("BenchmarkSweep/N100001/gone", 10e6),
	}}
	newRep := &Report{Commit: "bbb", Benchmarks: []BenchResult{
		benchNs("BenchmarkSweep/N100001/reference", 310e6),    // +3.3%: within tolerance
		benchNs("BenchmarkSweep/N100001/fused-single", 200e6), // +33%: regression
		benchNs("BenchmarkSweep/N100001/fused-band", 100e6),   // new
	}}
	var out strings.Builder
	if got := compareReports(oldRep, newRep, 0.15, &out); got != 1 {
		t.Errorf("regressions = %d, want 1\n%s", got, out.String())
	}
	for _, want := range []string{
		"ok        BenchmarkSweep/N100001/reference",
		"REGRESSED BenchmarkSweep/N100001/fused-single",
		"new       BenchmarkSweep/N100001/fused-band",
		"missing   BenchmarkSweep/N100001/gone",
		"2 compared (aaa -> bbb), 1 regressed beyond 15%",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// A looser tolerance absorbs the +33% growth.
	out.Reset()
	if got := compareReports(oldRep, newRep, 0.5, &out); got != 0 {
		t.Errorf("regressions at tol 0.5 = %d, want 0\n%s", got, out.String())
	}
}

func TestCompareMatchesByNameAndProcs(t *testing.T) {
	oldRep := &Report{Commit: "aaa", Benchmarks: []BenchResult{
		{Name: "BenchmarkSweep/N100001", Procs: 1, NsPerOp: 100e6},
		{Name: "BenchmarkSweep/N100001", Procs: 8, NsPerOp: 20e6},
	}}
	newRep := &Report{Commit: "bbb", Benchmarks: []BenchResult{
		// The 1-core entry regressed 50% while the 8-core entry improved.
		// If the comparison collapsed both onto the bare name, one pair
		// would be diffed against the wrong baseline.
		{Name: "BenchmarkSweep/N100001", Procs: 1, NsPerOp: 150e6},
		{Name: "BenchmarkSweep/N100001", Procs: 8, NsPerOp: 15e6},
	}}
	var out strings.Builder
	if got := compareReports(oldRep, newRep, 0.15, &out); got != 1 {
		t.Errorf("regressions = %d, want 1 (the 1-core pair)\n%s", got, out.String())
	}
	for _, want := range []string{
		"REGRESSED BenchmarkSweep/N100001 ",
		"ok        BenchmarkSweep/N100001@8cores",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// An entry whose procs changed between reports is a new/missing pair,
	// not a comparison against the wrong core count.
	out.Reset()
	soloOld := &Report{Commit: "aaa", Benchmarks: []BenchResult{{Name: "BenchmarkX", Procs: 1, NsPerOp: 100e6}}}
	soloNew := &Report{Commit: "bbb", Benchmarks: []BenchResult{{Name: "BenchmarkX", Procs: 8, NsPerOp: 500e6}}}
	if got := compareReports(soloOld, soloNew, 0.15, &out); got != 0 {
		t.Errorf("cross-procs pair compared: %d regressions\n%s", got, out.String())
	}
	for _, want := range []string{"new       BenchmarkX@8cores", "missing   BenchmarkX "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunCompare drives the CLI entry point end to end, including the
// hand-scanned trailing -tol (the flag package stops at the first
// positional, so `-compare a b -tol 0.5` leaves `-tol 0.5` in Args()).
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeReport(t, oldPath, &Report{Commit: "aaa", Benchmarks: []BenchResult{benchNs("BenchmarkX", 100e6)}})
	writeReport(t, newPath, &Report{Commit: "bbb", Benchmarks: []BenchResult{benchNs("BenchmarkX", 140e6)}})

	var stdout, stderr strings.Builder
	if code := runCompare([]string{oldPath, newPath}, 0.15, &stdout, &stderr); code != 1 {
		t.Errorf("default tolerance: exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := runCompare([]string{oldPath, newPath, "-tol", "0.5"}, 0.15, &stdout, &stderr); code != 0 {
		t.Errorf("trailing -tol 0.5: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := runCompare([]string{oldPath, newPath, "-tol=0.5"}, 0.15, &stdout, &stderr); code != 0 {
		t.Errorf("trailing -tol=0.5: exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}

	// Usage and I/O failures exit 2, not 1.
	for name, args := range map[string][]string{
		"one file":     {oldPath},
		"three files":  {oldPath, newPath, oldPath},
		"missing file": {oldPath, filepath.Join(dir, "nope.json")},
		"bad tol":      {oldPath, newPath, "-tol", "abc"},
		"dangling tol": {oldPath, newPath, "-tol"},
	} {
		if code := runCompare(args, 0.15, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
	if code := runCompare([]string{oldPath, newPath, "-tol", "-1"}, 0.15, &stdout, &stderr); code != 2 {
		t.Error("negative tolerance accepted")
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX abc 5 ns/op",
		"BenchmarkX 10 fast very",
	} {
		if _, ok := parseBenchLine(line, 1); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

// TestParseFoldsRepeatedRuns pins the -count folding: repeated lines of
// one benchmark collapse into one entry carrying the median ns/op (the
// mean of the middle two for an even count), the min, the max and the
// run count, in order of first appearance, with B/op and allocs/op from
// the median run; a single run reports itself as min and max.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	const out = `BenchmarkA-2   10   300 ns/op   64 B/op   2 allocs/op
BenchmarkB-2   10   50 ns/op
BenchmarkA-2   10   100 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   10   200 ns/op   48 B/op   3 allocs/op
BenchmarkB-2   10   70 ns/op
BenchmarkC-2   10   9 ns/op
`
	rep, err := parseWithProcs(strings.NewReader(out), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("folded into %d entries, want 3", len(rep.Benchmarks))
	}
	a, b, c := rep.Benchmarks[0], rep.Benchmarks[1], rep.Benchmarks[2]
	if a.Name != "BenchmarkA" || a.NsPerOp != 200 || a.NsMin != 100 || a.NsMax != 300 || a.Runs != 3 {
		t.Errorf("A: %+v, want median 200 in [100, 300] over 3 runs", a)
	}
	if a.BytesPerOp == nil || *a.BytesPerOp != 48 || a.AllocsPerOp == nil || *a.AllocsPerOp != 3 {
		t.Errorf("A: B/op and allocs/op not taken from the median run: %v %v", a.BytesPerOp, a.AllocsPerOp)
	}
	if b.Name != "BenchmarkB" || b.NsPerOp != 60 || b.NsMin != 50 || b.NsMax != 70 || b.Runs != 2 {
		t.Errorf("B: %+v, want median 60 in [50, 70] over 2 runs", b)
	}
	if c.NsPerOp != 9 || c.NsMin != 9 || c.NsMax != 9 || c.Runs != 1 {
		t.Errorf("C: %+v, want a single run of 9", c)
	}
}

// TestCompareUsesOldMax pins the spread-aware gate: a new median is a
// regression only beyond the old max × (1+tol), not beyond the old
// median.
func TestCompareUsesOldMax(t *testing.T) {
	oldRep := &Report{Commit: "aaa", Benchmarks: []BenchResult{
		{Name: "BenchmarkX", Procs: 1, NsPerOp: 100e6, NsMin: 90e6, NsMax: 130e6, Runs: 5},
	}}
	for _, c := range []struct {
		median float64
		want   int
	}{{140e6, 0}, {149e6, 0}, {150e6, 1}} {
		newRep := &Report{Commit: "bbb", Benchmarks: []BenchResult{{Name: "BenchmarkX", Procs: 1, NsPerOp: c.median}}}
		var out strings.Builder
		if got := compareReports(oldRep, newRep, 0.15, &out); got != c.want {
			t.Errorf("median %g vs old max 130e6: regressions = %d, want %d\n%s", c.median, got, c.want, out.String())
		}
	}
}
