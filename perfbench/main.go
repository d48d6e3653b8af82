// Command perfbench is the repository benchmark. It drives POST /v1/solve
// and /v1/solve/batch in-process through server.New(...).Handler() with
// closed-loop clients on one of four ON–OFF workloads, checks every
// response against an independent oracle, and prints one JSON result line
// as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a run that replays every request
// through the layers under spans, and the spans are written to
// .bench_build/trace/<workload>-seed<n>.jsonl. See README.md for the
// workloads, metrics and layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload: small-mix, midsize-warm, large-cold or composed-kron")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	var res *result
	switch trace {
	case 0:
		res, err = runTimed(w, seed, seconds)
	case 1:
		res, err = runTraced(w, seed, seconds, fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, seed))
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
