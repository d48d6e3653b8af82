// Command somrm computes accumulated-reward moments (and optionally
// moment-based distribution bounds) for a second-order Markov reward model
// described by a JSON file.
//
// Model specification:
//
//	{
//	  "states": 2,
//	  "transitions": [{"from": 0, "to": 1, "rate": 2.0},
//	                  {"from": 1, "to": 0, "rate": 3.0}],
//	  "rates":     [1.5, -0.5],
//	  "variances": [0.2, 1.0],
//	  "initial":   [1, 0],
//	  "impulses":  [{"from": 0, "to": 1, "reward": 0.1}]
//	}
//
// Usage:
//
//	somrm -model model.json -t 1.0 -order 4 [-eps 1e-9] [-per-state] [-bounds x1,x2,...]
//	somrm -model model.json -times 0.5,1,2 -order 4   # CSV series, one shared sweep
//	somrm -model model.json -t 1.0 -server http://localhost:8639   # solve remotely
//	somrm -model model.json -t 1.0 -server http://a:8639,http://b:8639,http://c:8639
//
// With -server the model is shipped to a running somrm-serve instance:
// -times maps onto a single POST /v1/solve/batch (the whole grid shares
// one randomization sweep server-side), everything else onto POST
// /v1/solve. Output is identical to the in-process path. Transient
// failures (503s, connection errors) are retried with jittered
// exponential backoff behind a circuit breaker; tune with -retries,
// -retry-base, -retry-max, -no-breaker.
//
// A comma-separated -server list addresses a somrm-serve cluster: the
// request is routed to the replica owning the model's hash on the
// cluster's consistent-hash ring (maximizing cache hits) and fails over
// along the ring when that replica is unreachable. A single URL behaves
// exactly as before.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"somrm"
	"somrm/internal/report"
	"somrm/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "somrm:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("somrm", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the JSON model spec ('-' for stdin)")
	t := fs.Float64("t", 1, "accumulation time")
	order := fs.Int("order", 3, "highest moment order")
	eps := fs.Float64("eps", 1e-9, "randomization truncation accuracy")
	sweepWorkers := fs.Int("sweep-workers", 0, "randomization sweep parallelism: 0 auto (fused kernel at every size; a worker team at 8,191 states and up), N forces a fused team of N, negative selects the serial reference sweep used as the test oracle (all bitwise identical)")
	perState := fs.Bool("per-state", false, "print per-initial-state moment vectors")
	boundsAt := fs.String("bounds", "", "comma-separated reward levels for CDF bounds")
	timesAt := fs.String("times", "", "comma-separated time grid: emit a CSV moment series instead of a single point")
	serverURL := fs.String("server", "", "base URL of a somrm-serve instance (or a comma-separated cluster of them): solve there instead of in-process")
	retries := fs.Int("retries", 0, "with -server: total attempts per request, 1 disables retries (0 = default 4)")
	retryBase := fs.Duration("retry-base", 0, "with -server: base backoff delay (0 = default 50ms)")
	retryMax := fs.Duration("retry-max", 0, "with -server: backoff delay cap (0 = default 2s)")
	noBreaker := fs.Bool("no-breaker", false, "with -server: disable the client circuit breaker")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand or stray argument %q (somrm takes flags only)", fs.Arg(0))
	}
	if *modelPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -model")
	}

	sp, err := loadSpec(*modelPath)
	if err != nil {
		return err
	}

	if *serverURL != "" {
		if *perState {
			return fmt.Errorf("-per-state is not available with -server (vector moments stay server-side)")
		}
		var clientOpts []somrm.ClientOption
		if *retries != 0 || *retryBase != 0 || *retryMax != 0 {
			clientOpts = append(clientOpts, somrm.WithClientRetryPolicy(somrm.RetryPolicy{
				MaxAttempts: *retries, BaseDelay: *retryBase, MaxDelay: *retryMax,
			}))
		}
		if *noBreaker {
			clientOpts = append(clientOpts, somrm.WithoutClientBreaker())
		}
		// A comma in -server selects the cluster client; a single URL keeps
		// the plain client, byte for byte.
		var client solverClient
		if strings.Contains(*serverURL, ",") {
			cc := somrm.NewClusterClient(splitURLs(*serverURL), clientOpts...)
			defer cc.Close()
			client = cc
		} else {
			client = somrm.NewServerClient(*serverURL, clientOpts...)
		}
		return runRemote(client, sp, *timesAt, *t, *order, *eps, *boundsAt, out)
	}

	model, err := sp.Build()
	if err != nil {
		return err
	}

	if *timesAt != "" {
		times, err := parseFloats(*timesAt)
		if err != nil {
			return fmt.Errorf("bad -times: %w", err)
		}
		results, err := model.AccumulatedRewardAt(times, *order, &somrm.SolveOptions{Epsilon: *eps, SweepWorkers: *sweepWorkers})
		if err != nil {
			return err
		}
		return writeSeries(results, *order, out)
	}

	res, err := model.AccumulatedReward(*t, *order, &somrm.SolveOptions{Epsilon: *eps, SweepWorkers: *sweepWorkers})
	if err != nil {
		return err
	}

	tab := report.NewTable(fmt.Sprintf("Moments of the accumulated reward at t=%g", *t), "order", "E[B^j]")
	for j := 0; j <= *order; j++ {
		if err := tab.AddFloatRow(strconv.Itoa(j), res.Moments[j]); err != nil {
			return err
		}
	}
	if err := tab.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "solver: q=%g qt=%g d=%g G=%d shift=%g error-bound=%.3g%s%s\n",
		res.Stats.Q, res.Stats.QT, res.Stats.D, res.Stats.G, res.Stats.Shift, res.Stats.ErrorBound,
		formatSuffix(res.Stats.MatrixFormat), kernelSuffix(res.Stats.SweepKernel))

	if *perState {
		head := []string{"state"}
		for j := 0; j <= *order; j++ {
			head = append(head, "j="+strconv.Itoa(j))
		}
		pt := report.NewTable("Per-initial-state moments", head...)
		vm := res.StateMoments()
		for i := 0; i < model.N(); i++ {
			vals := make([]float64, *order+1)
			for j := 0; j <= *order; j++ {
				vals[j] = vm[j][i]
			}
			if err := pt.AddFloatRow(strconv.Itoa(i), vals...); err != nil {
				return err
			}
		}
		if err := pt.Render(out); err != nil {
			return err
		}
	}

	if *boundsAt != "" {
		est, err := somrm.NewDistributionBounds(res.Moments)
		if err != nil {
			return fmt.Errorf("distribution bounds: %w", err)
		}
		bt := report.NewTable(fmt.Sprintf("CDF bounds (usable moment depth %d)", 2*est.MaxNodes()),
			"x", "lower", "upper")
		for _, tok := range strings.Split(*boundsAt, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad bounds point %q: %w", tok, err)
			}
			b, err := est.CDFBounds(x)
			if err != nil {
				return err
			}
			if err := bt.AddFloatRow(report.FormatFloat(x), b.Lower, b.Upper); err != nil {
				return err
			}
		}
		if err := bt.Render(out); err != nil {
			return err
		}
	}
	return nil
}

// formatSuffix renders the resolved sweep matrix format for the solver
// stats line; older servers (and the serial reference path) leave it
// empty, in which case nothing is appended.
func formatSuffix(format string) string {
	if format == "" {
		return ""
	}
	return " format=" + format
}

// kernelSuffix renders the dispatched sweep compute kernel ("avx2" or
// "scalar") like formatSuffix; empty (no sweep ran, or an older server)
// appends nothing.
func kernelSuffix(kernel string) string {
	if kernel == "" {
		return ""
	}
	return " kernel=" + kernel
}

func loadSpec(path string) (*spec.Model, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return spec.Parse(raw)
}

func parseFloats(arg string) ([]float64, error) {
	var vals []float64
	for _, tok := range strings.Split(arg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", tok, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// writeSeries emits one CSV row of moments per time point.
func writeSeries(results []*somrm.Result, order int, out io.Writer) error {
	headers := make([]string, 0, order+2)
	headers = append(headers, "t")
	for j := 0; j <= order; j++ {
		headers = append(headers, "m"+strconv.Itoa(j))
	}
	csv, err := report.NewCSV(out, headers...)
	if err != nil {
		return err
	}
	for _, res := range results {
		row := make([]float64, 0, order+2)
		row = append(row, res.T)
		row = append(row, res.Moments...)
		if err := csv.Row(row...); err != nil {
			return err
		}
	}
	return nil
}

// solverClient abstracts over the single-server client and the cluster
// client; both expose identical Solve/SolveBatch signatures.
type solverClient interface {
	Solve(ctx context.Context, req *somrm.SolveRequest) (*somrm.SolveResponse, error)
	SolveBatch(ctx context.Context, req *somrm.BatchRequest) (*somrm.BatchResponse, error)
}

// splitURLs parses a comma-separated URL list, dropping empty tokens.
func splitURLs(arg string) []string {
	var urls []string
	for _, tok := range strings.Split(arg, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			urls = append(urls, tok)
		}
	}
	return urls
}

// runRemote ships the model to a somrm-serve instance (or cluster). A
// -times grid maps onto one batch request so the whole series shares a
// single randomization sweep server-side; a single -t maps onto POST
// /v1/solve.
func runRemote(client solverClient, sp *spec.Model, timesArg string, t float64, order int, eps float64, boundsArg string, out io.Writer) error {
	ctx := context.Background()

	if timesArg != "" {
		times, err := parseFloats(timesArg)
		if err != nil {
			return fmt.Errorf("bad -times: %w", err)
		}
		resp, err := client.SolveBatch(ctx, &somrm.BatchRequest{
			Model: sp,
			Items: []somrm.BatchItem{{Times: times, Order: order, Epsilon: eps}},
		})
		if err != nil {
			return err
		}
		item := resp.Items[0]
		if item.Status != "ok" {
			return fmt.Errorf("server: %s", item.Error)
		}
		results := make([]*somrm.Result, len(item.Points))
		for i, pt := range item.Points {
			results[i] = &somrm.Result{T: pt.T, Moments: pt.Moments}
		}
		return writeSeries(results, order, out)
	}

	req := &somrm.SolveRequest{Model: sp, T: t, Order: order, Epsilon: eps}
	if boundsArg != "" {
		bounds, err := parseFloats(boundsArg)
		if err != nil {
			return fmt.Errorf("bad -bounds: %w", err)
		}
		req.BoundsAt = bounds
	}
	resp, err := client.Solve(ctx, req)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("Moments of the accumulated reward at t=%g", t), "order", "E[B^j]")
	for j := 0; j <= order; j++ {
		if err := tab.AddFloatRow(strconv.Itoa(j), resp.Moments[j]); err != nil {
			return err
		}
	}
	if err := tab.Render(out); err != nil {
		return err
	}
	if st := resp.Stats; st != nil {
		fmt.Fprintf(out, "solver: q=%g qt=%g d=%g G=%d shift=%g error-bound=%.3g%s%s\n",
			st.Q, st.QT, st.D, st.G, st.Shift, st.ErrorBound,
			formatSuffix(st.MatrixFormat), kernelSuffix(st.SweepKernel))
	}
	if len(resp.Bounds) > 0 {
		bt := report.NewTable("CDF bounds", "x", "lower", "upper")
		for _, b := range resp.Bounds {
			if err := bt.AddFloatRow(report.FormatFloat(b.X), b.Lower, b.Upper); err != nil {
				return err
			}
		}
		if err := bt.Render(out); err != nil {
			return err
		}
	}
	return nil
}
