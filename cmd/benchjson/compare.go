package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// runCompare implements `benchjson -compare old.json new.json [-tol F]`:
// load two reports, match benchmarks by name, and flag any whose median
// ns/op exceeds the old max by more than the tolerance fraction (see
// compareReports). Returns the process exit code: 0 clean, 1 at least
// one regression, 2 usage or I/O error.
//
// The trailing -tol is scanned by hand because the flag package stops
// parsing at the first positional argument, so a -tol written after the
// file names lands in flag.Args() untouched.
func runCompare(args []string, tol float64, stdout, stderr io.Writer) int {
	paths := make([]string, 0, 2)
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-tol" || a == "--tol":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "benchjson: -tol needs a value")
				return 2
			}
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				fmt.Fprintf(stderr, "benchjson: bad -tol %q: %v\n", args[i+1], err)
				return 2
			}
			tol = v
			i++
		case strings.HasPrefix(a, "-tol=") || strings.HasPrefix(a, "--tol="):
			v, err := strconv.ParseFloat(a[strings.Index(a, "=")+1:], 64)
			if err != nil {
				fmt.Fprintf(stderr, "benchjson: bad %s: %v\n", a, err)
				return 2
			}
			tol = v
		default:
			paths = append(paths, a)
		}
	}
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
		return 2
	}
	if tol < 0 {
		fmt.Fprintln(stderr, "benchjson: -tol must be non-negative")
		return 2
	}
	oldRep, err := loadReport(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if compareReports(oldRep, newRep, tol, stdout) > 0 {
		return 1
	}
	return 0
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}

// benchKey identifies one benchmark entry for comparison. Keying by
// (Name, Procs) rather than name alone keeps multi-core variants of the
// same benchmark distinct: a report can legitimately hold "sweep/N100001"
// at 1 core and at 8 cores, and only like-for-like pairs should be diffed.
type benchKey struct {
	Name  string
	Procs int
}

// label renders the key for the diff listing, suffixing the proc count
// only when it disambiguates.
func (k benchKey) label() string {
	if k.Procs > 1 {
		return fmt.Sprintf("%s@%dcores", k.Name, k.Procs)
	}
	return k.Name
}

// compareReports prints one line per benchmark shared by both reports and
// returns the number of regressions: benchmarks whose new median ns/op
// exceeds the old max ns/op (the old median for a report recorded
// without repeats) by more than the tolerance fraction, so a median
// inside the old runs' spread never counts. The printed delta is median
// to median. Entries are matched by (name, procs), so per-core variants
// diff like for like. Benchmarks present on only one side are noted but
// never count as regressions — renames and new variants should not fail
// a perf gate on their own.
func compareReports(oldRep, newRep *Report, tol float64, w io.Writer) int {
	oldBy := make(map[benchKey]BenchResult, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[benchKey{b.Name, b.Procs}] = b
	}
	seen := make(map[benchKey]bool, len(newRep.Benchmarks))
	regressions := 0
	compared := 0
	for _, nb := range newRep.Benchmarks {
		key := benchKey{nb.Name, nb.Procs}
		ob, ok := oldBy[key]
		if !ok {
			fmt.Fprintf(w, "  new       %-44s %s\n", key.label(), fmtNs(nb.NsPerOp))
			continue
		}
		seen[key] = true
		compared++
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		oldMax := max(ob.NsMax, ob.NsPerOp)
		if nb.NsPerOp > oldMax*(1+tol) {
			regressions++
			fmt.Fprintf(w, "  REGRESSED %-44s %s -> %s  %+.1f%% (old max %s, tolerance %.0f%%)\n",
				key.label(), fmtNs(ob.NsPerOp), fmtNs(nb.NsPerOp), delta*100, fmtNs(oldMax), tol*100)
			continue
		}
		fmt.Fprintf(w, "  ok        %-44s %s -> %s  %+.1f%%\n",
			key.label(), fmtNs(ob.NsPerOp), fmtNs(nb.NsPerOp), delta*100)
	}
	for _, ob := range oldRep.Benchmarks {
		key := benchKey{ob.Name, ob.Procs}
		if !seen[key] {
			fmt.Fprintf(w, "  missing   %-44s was %s\n", key.label(), fmtNs(ob.NsPerOp))
		}
	}
	fmt.Fprintf(w, "%d compared (%s -> %s), %d regressed beyond %.0f%%\n",
		compared, oldRep.Commit, newRep.Commit, regressions, tol*100)
	return regressions
}

// fmtNs renders a ns/op figure in the most readable unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
