// Command somrm-experiments regenerates the tables and figures of
// "Analysis of Second-Order Markov Reward Models" (DSN 2004). Each
// subcommand prints the corresponding series/table to stdout; see
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	somrm-experiments fig1|fig3|fig4|fig5|fig6|fig7|fig8|crosscheck|errorbound|all [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"somrm/internal/experiments"
	"somrm/internal/plot"
	"somrm/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "somrm-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: somrm-experiments <fig1|fig3|fig4|fig5|fig6|fig7|fig8|crosscheck|errorbound|all> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "fig1":
		return runFig1(rest)
	case "fig3":
		return runFig3(rest)
	case "fig4":
		return runFig4(rest)
	case "fig5":
		return runBounds(rest, 0)
	case "fig6":
		return runBounds(rest, 1)
	case "fig7":
		return runBounds(rest, 10)
	case "fig8", "table2":
		return runLarge(rest)
	case "crosscheck":
		return runCrossCheck(rest)
	case "errorbound":
		return runErrorBound(rest)
	case "all":
		for _, c := range []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "crosscheck", "errorbound"} {
			fmt.Printf("==== %s ====\n", c)
			if err := run(append([]string{c}, rest...)); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	horizon := fs.Float64("t", 2.5, "trajectory horizon")
	dt := fs.Float64("dt", 0.005, "observation grid spacing")
	seed := fs.Int64("seed", 7, "RNG seed")
	svg := fs.String("svg", "", "write the figure as SVG to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := experiments.Fig1(*horizon, *dt, *seed)
	if err != nil {
		return err
	}
	if *svg != "" {
		states := make([]float64, len(tr.States))
		for i, st := range tr.States {
			states[i] = float64(st + 1)
		}
		chart := &plot.Chart{
			Title:  "Figure 1: sample realization of a second-order reward model",
			XLabel: "t",
			Series: []plot.Series{
				{Name: "accumulated reward B(t)", X: tr.Times, Y: tr.Reward},
				{Name: "structure state Z(t)", X: tr.Times, Y: states, Style: plot.StyleStep},
			},
		}
		if err := writeSVG(*svg, chart); err != nil {
			return err
		}
	}
	csv, err := report.NewCSV(os.Stdout, "t", "state", "reward")
	if err != nil {
		return err
	}
	for i := range tr.Times {
		if err := csv.Row(tr.Times[i], float64(tr.States[i]+1), tr.Reward[i]); err != nil {
			return err
		}
	}
	fmt.Printf("# %d grid points, %d state transitions\n", len(tr.Times), len(tr.Jumps))
	return nil
}

func runFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	eps := fs.Float64("eps", 1e-9, "randomization accuracy")
	svg := fs.String("svg", "", "write the figure as SVG to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := experiments.Fig3(experiments.DefaultTimes(), *eps)
	if err != nil {
		return err
	}
	if *svg != "" {
		times := data.Series[0].Times
		chart := &plot.Chart{
			Title:  "Figure 3: mean accumulated reward",
			XLabel: "t", YLabel: "E[B(t)]",
			Series: []plot.Series{
				{Name: "all-OFF start (any sigma2)", X: times, Y: seriesMoment(data.Series[0], 1)},
				{Name: "steady-state start", X: times, Y: scaleTimes(times, data.SteadyStateRate)},
			},
		}
		if err := writeSVG(*svg, chart); err != nil {
			return err
		}
	}
	tab := report.NewTable("Figure 3: mean accumulated reward E[B(t)] (initial state: all sources OFF)",
		"t", "sigma2=0", "sigma2=1", "sigma2=10", "steady-state")
	for k, t := range data.Series[0].Times {
		if err := tab.AddFloatRow(report.FormatFloat(t),
			data.Series[0].Values[k][1],
			data.Series[1].Values[k][1],
			data.Series[2].Values[k][1],
			data.SteadyStateRate*t); err != nil {
			return err
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("steady-state mean rate pi.r = %.6f (paper: mean independent of sigma^2)\n", data.SteadyStateRate)
	return nil
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	eps := fs.Float64("eps", 1e-9, "randomization accuracy")
	svg := fs.String("svg", "", "write the figures as SVG (suffixed -m2/-m3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := experiments.Fig4(experiments.DefaultTimes(), *eps)
	if err != nil {
		return err
	}
	if *svg != "" {
		times := data.Series[0].Times
		for _, j := range []int{2, 3} {
			chart := &plot.Chart{
				Title:  fmt.Sprintf("Figure 4: %d. moment of the accumulated reward", j),
				XLabel: "t", YLabel: fmt.Sprintf("E[B(t)^%d]", j),
				Series: []plot.Series{
					{Name: "sigma2=0", X: times, Y: seriesMoment(data.Series[0], j)},
					{Name: "sigma2=1", X: times, Y: seriesMoment(data.Series[1], j)},
					{Name: "sigma2=10", X: times, Y: seriesMoment(data.Series[2], j)},
				},
			}
			if err := writeSVG(suffixPath(*svg, fmt.Sprintf("-m%d", j)), chart); err != nil {
				return err
			}
		}
	}
	for _, j := range []int{2, 3} {
		tab := report.NewTable(fmt.Sprintf("Figure 4: %d. moment of the accumulated reward", j),
			"t", "sigma2=0", "sigma2=1", "sigma2=10")
		for k, t := range data.Series[0].Times {
			if err := tab.AddFloatRow(report.FormatFloat(t),
				data.Series[0].Values[k][j],
				data.Series[1].Values[k][j],
				data.Series[2].Values[k][j]); err != nil {
				return err
			}
		}
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runBounds(args []string, sigma2 float64) error {
	fs := flag.NewFlagSet("bounds", flag.ContinueOnError)
	t := fs.Float64("t", 0.5, "accumulation time")
	moments := fs.Int("moments", 23, "number of moments (paper uses 23)")
	points := fs.Int("points", 41, "plot points")
	eps := fs.Float64("eps", 1e-9, "randomization accuracy")
	svg := fs.String("svg", "", "write the figure as SVG to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := experiments.FigBounds(sigma2, *t, *moments, *points, *eps)
	if err != nil {
		return err
	}
	if *svg != "" {
		xs := make([]float64, len(data.Points))
		lower := make([]float64, len(data.Points))
		upper := make([]float64, len(data.Points))
		exact := make([]float64, 0, len(data.Points))
		exactX := make([]float64, 0, len(data.Points))
		for i, p := range data.Points {
			xs[i], lower[i], upper[i] = p.X, p.Lower, p.Upper
			if p.ExactCDF == p.ExactCDF { // not NaN
				exactX = append(exactX, p.X)
				exact = append(exact, p.ExactCDF)
			}
		}
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Figures 5-7: bounds for P(B(%g) <= x), sigma2=%g", data.T, data.Sigma2),
			XLabel: "x", YLabel: "CDF",
			Series: []plot.Series{
				{Name: "lower bound", X: xs, Y: lower, Style: plot.StyleStep},
				{Name: "upper bound", X: xs, Y: upper, Style: plot.StyleStep},
			},
		}
		if len(exact) > 0 {
			chart.Series = append(chart.Series, plot.Series{Name: "exact CDF (Gil-Pelaez)", X: exactX, Y: exact})
		}
		if err := writeSVG(*svg, chart); err != nil {
			return err
		}
	}
	tab := report.NewTable(
		fmt.Sprintf("Figures 5-7: CDF bounds of B(%g), sigma2=%g (moments requested %d, usable depth %d)",
			data.T, data.Sigma2, data.MomentsRequested, data.MomentsUsable),
		"x", "lower", "upper", "width", "exact CDF")
	for _, p := range data.Points {
		if err := tab.AddFloatRow(strconv.FormatFloat(p.X, 'f', 4, 64),
			p.Lower, p.Upper, p.Upper-p.Lower, p.ExactCDF); err != nil {
			return err
		}
	}
	return tab.Render(os.Stdout)
}

func runLarge(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ContinueOnError)
	full := fs.Bool("full", false, "run the full N=200,000 paper model (tens of seconds of CPU)")
	scale := fs.Int("scale", 100, "source-count divisor when not running -full")
	eps := fs.Float64("eps", 1e-9, "randomization accuracy (paper: 1e-9)")
	svg := fs.String("svg", "", "write the figure as SVG to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *full {
		*scale = 1
	}
	data, err := experiments.FigLarge(*scale, *eps)
	if err != nil {
		return err
	}
	if *svg != "" {
		times := make([]float64, len(data.Points))
		m1 := make([]float64, len(data.Points))
		for i, p := range data.Points {
			times[i] = p.T
			m1[i] = p.Moments[1]
		}
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Figure 8: mean accumulated reward of the large model (N=%d)", data.N),
			XLabel: "t", YLabel: "E[B(t)]",
			Series: []plot.Series{{Name: "E[B(t)]", X: times, Y: m1}},
		}
		if err := writeSVG(*svg, chart); err != nil {
			return err
		}
	}
	tab := report.NewTable(
		fmt.Sprintf("Figure 8 / Table 2: large ON-OFF model, N=%d sources (%d states)", data.N, data.N+1),
		"t", "E[B]", "E[B^2]", "E[B^3]", "G", "q", "qt", "flops/iter")
	for _, p := range data.Points {
		if err := tab.AddRow(
			report.FormatFloat(p.T),
			report.FormatFloat(p.Moments[1]),
			report.FormatFloat(p.Moments[2]),
			report.FormatFloat(p.Moments[3]),
			strconv.Itoa(p.Stats.G),
			report.FormatFloat(p.Stats.Q),
			report.FormatFloat(p.Stats.QT),
			strconv.FormatInt(p.Stats.FlopsPerIteration, 10),
		); err != nil {
			return err
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	last := data.Points[len(data.Points)-1]
	fmt.Printf("# one shared sweep of G=%d iterations serves all %d points: %s\n", last.Stats.G, len(data.Points), data.Elapsed.Round(1e6))
	fmt.Println("# paper (N=200,000, t=0.05, eps=1e-9): G=41,588, q=800,000, qt=40,000, flops/iter=(3+1+1)*200,001*4")
	return nil
}

func runCrossCheck(args []string) error {
	fs := flag.NewFlagSet("crosscheck", flag.ContinueOnError)
	t := fs.Float64("t", 0.5, "accumulation time")
	sigma2 := fs.Float64("sigma2", 1, "per-source variance")
	order := fs.Int("order", 3, "highest moment")
	reps := fs.Int("reps", 200_000, "simulation replications")
	seed := fs.Int64("seed", 42, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := experiments.CrossCheck(*sigma2, *t, *order, *reps, *seed)
	if err != nil {
		return err
	}
	tab := report.NewTable(
		fmt.Sprintf("Cross-check (section 7): three solution methods, sigma2=%g, t=%g", data.Sigma2, data.T),
		"moment", "randomization", "ODE (RK4)", "simulation", "sim 95% hw")
	for j := 0; j <= data.Order; j++ {
		if err := tab.AddFloatRow(strconv.Itoa(j),
			data.Randomization[j], data.ODE[j], data.Simulation[j], data.SimHalfWidth[j]); err != nil {
			return err
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("timings: randomization=%v ode=%v simulation=%v (%d reps)\n",
		data.RandomizationTime, data.ODETime, data.SimulationTime, data.SimReps)
	fmt.Printf("max rel diff randomization vs ODE: %.3g; simulation within 3 sigma: %v\n",
		data.MaxRelDiffODE, data.SimWithinCI)
	return nil
}

func runErrorBound(args []string) error {
	fs := flag.NewFlagSet("errorbound", flag.ContinueOnError)
	t := fs.Float64("t", 0.5, "accumulation time")
	sigma2 := fs.Float64("sigma2", 10, "per-source variance")
	order := fs.Int("order", 3, "highest moment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	eps := []float64{1e-3, 1e-6, 1e-9, 1e-12}
	points, err := experiments.ErrorBoundAblation(*sigma2, *t, *order, eps)
	if err != nil {
		return err
	}
	tab := report.NewTable(
		"Ablation: tightness of the eq. (11) truncation bound (vs eps=1e-14 reference)",
		"epsilon", "G", "bound at G", "actual error")
	for _, p := range points {
		if err := tab.AddFloatRow(report.FormatFloat(p.Epsilon),
			float64(p.G), p.Bound, p.ActualError); err != nil {
			return err
		}
	}
	return tab.Render(os.Stdout)
}

// writeSVG renders a chart into the given file.
func writeSVG(path string, chart *plot.Chart) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chart.RenderSVG(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// suffixPath inserts a suffix before the file extension.
func suffixPath(path, suffix string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + suffix + ext
}

// seriesMoment extracts the order-j column of a moment series.
func seriesMoment(s experiments.MomentSeries, j int) []float64 {
	out := make([]float64, len(s.Values))
	for k, v := range s.Values {
		out[k] = v[j]
	}
	return out
}

// scaleTimes returns rate*t for each grid time.
func scaleTimes(times []float64, rate float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = rate * t
	}
	return out
}
