// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark runs can be committed and diffed (see
// `make bench-sweep`, which records the randomization sweep benchmarks in
// BENCH_sweep.json).
//
// Usage:
//
//	go test -bench Sweep -benchmem -count 5 ./internal/core/ | benchjson -o BENCH_sweep.json
//	benchjson -compare old.json new.json -tol 0.15
//
// Repeated lines of one benchmark (go test -count N) fold into one entry:
// the median ns/op, its min and max, and the run count.
//
// The commit hash is taken from -commit, falling back to `git rev-parse
// HEAD` with a "-dirty" suffix when `git status --porcelain` lists any
// change (the run measured a tree that is not that commit), falling back
// to "unknown" — the tool never fails just because the tree is not a
// checkout.
//
// -compare diffs two recorded reports benchmark-by-benchmark and exits
// nonzero when any shared benchmark's median ns/op exceeds the old
// report's max ns/op by more than the -tol fraction (default 0.15), so
// `make bench-check` can flag perf regressions against the committed
// baseline without flagging a new median that sits inside the old runs'
// spread.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	// Name is the benchmark name without the trailing -P procs suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the line (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured iteration count (b.N).
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median ns/op over the Runs repeated lines of this
	// benchmark (go test -count); NsMin and NsMax bound the runs.
	NsPerOp float64 `json:"ns_per_op"`
	NsMin   float64 `json:"ns_min,omitempty"`
	NsMax   float64 `json:"ns_max,omitempty"`
	Runs    int     `json:"runs,omitempty"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the line's other values by unit, the ones a
	// benchmark adds with b.ReportMetric (e.g. "matvecs/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	// Commit identifies the source revision the run measured.
	Commit string `json:"commit"`
	// Cores is the machine's logical CPU count at conversion time.
	Cores int `json:"cores"`
	// GoOS/GoArch/CPU echo the bench header when present.
	GoOS       string        `json:"goos,omitempty"`
	GoArch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	commit := flag.String("commit", "", "commit hash to record (default: git rev-parse HEAD)")
	compareMode := flag.Bool("compare", false, "compare two recorded reports (old.json new.json) instead of converting; exit 1 on regression")
	tol := flag.Float64("tol", 0.15, "with -compare: allowed fractional ns/op growth before a benchmark counts as regressed")
	flag.Parse()

	if *compareMode {
		os.Exit(runCompare(flag.Args(), *tol, os.Stdout, os.Stderr))
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Commit = resolveCommit(*commit, runGit)
	rep.Cores = runtime.NumCPU()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// resolveCommit picks the recorded commit hash: the explicit flag, then
// the git HEAD of the working directory — suffixed "-dirty" when the
// working tree differs from it, or when its status cannot be read — then
// "unknown". git runs one git command and returns its standard output.
func resolveCommit(flagValue string, git func(args ...string) (string, error)) string {
	if flagValue != "" {
		return flagValue
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(head)
	if status, err := git("status", "--porcelain"); err != nil || strings.TrimSpace(status) != "" {
		commit += "-dirty"
	}
	return commit
}

// runGit runs git with args in the working directory.
func runGit(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return string(out), err
}

// parse reads `go test -bench` output and collects header fields and
// benchmark lines. Unrecognized lines (test logs, PASS/ok trailers) are
// skipped, so piping full `go test` output works.
func parse(r io.Reader) (*Report, error) {
	return parseWithProcs(r, runtime.GOMAXPROCS(0))
}

// parseWithProcs is parse with the GOMAXPROCS of the machine that ran the
// benchmarks made explicit, so tests can exercise both suffix regimes.
func parseWithProcs(r io.Reader, procs int) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line, procs)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// fold merges repeated results of one benchmark (same name and procs, as
// `go test -count N` prints them) into one entry, in order of first
// appearance: the median ns/op (the mean of the middle two for an even
// count) with the min, max and run count. Iterations, B/op and allocs/op
// are taken from the median run (the lower middle one for an even count).
func fold(results []BenchResult) []BenchResult {
	var order []benchKey
	runs := make(map[benchKey][]BenchResult)
	for _, r := range results {
		k := benchKey{r.Name, r.Procs}
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	out := make([]BenchResult, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		mid := (len(rs) - 1) / 2
		m := rs[mid]
		if len(rs)%2 == 0 {
			m.NsPerOp = (rs[mid].NsPerOp + rs[mid+1].NsPerOp) / 2
		}
		m.NsMin, m.NsMax, m.Runs = rs[0].NsPerOp, rs[len(rs)-1].NsPerOp, len(rs)
		out = append(out, m)
	}
	return out
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName[-P] <iters> <ns> ns/op [<bytes> B/op] [<allocs> allocs/op] [<v> <unit>]...
func parseBenchLine(line string, procs int) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return BenchResult{}, false
	}
	res := BenchResult{Name: fields[0], Procs: 1}
	// Split a trailing -P procs suffix. The testing package appends one
	// only when GOMAXPROCS != 1, and P is always that GOMAXPROCS value —
	// so only strip a "-P" that matches it. Stripping any numeric tail
	// would eat legitimate name suffixes like "workers-1".
	if procs > 1 {
		suffix := "-" + strconv.Itoa(procs)
		if strings.HasSuffix(res.Name, suffix) && len(res.Name) > len(suffix) {
			res.Name = res.Name[:len(res.Name)-len(suffix)]
			res.Procs = procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	res.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			b := v
			res.BytesPerOp = &b
		case "allocs/op":
			a := v
			res.AllocsPerOp = &a
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[fields[i+1]] = v
		}
	}
	if res.NsPerOp == 0 && res.BytesPerOp == nil {
		return BenchResult{}, false
	}
	return res, true
}
