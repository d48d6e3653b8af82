// Package difftest cross-checks the solver stack against itself: it
// generates random second-order Markov reward models from fixed seeds and
// asserts that the randomization solver (the paper's algorithm), the ODE
// integrator baseline, and — where a closed form exists — the normal-moment
// recurrence all agree. A bug in any one solver's constants breaks the
// agreement; a bug shared by all three would have to be introduced three
// times independently.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"somrm/internal/brownian"
	"somrm/internal/core"
	"somrm/internal/odesolver"
	"somrm/internal/spec"
)

// newSpec returns an n-state spec without transitions: drift rates
// uniform in [-rateScale, rateScale], variances exactly zero with
// probability 0.3 and 0.05 + U·varScale otherwise, and a zero initial
// vector for the caller to fill.
func newSpec(rng *rand.Rand, n int, rateScale, varScale float64) *spec.Model {
	sp := &spec.Model{
		States:    n,
		Rates:     make([]float64, n),
		Variances: make([]float64, n),
		Initial:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sp.Rates[i] = (rng.Float64()*2 - 1) * rateScale
		if rng.Float64() >= 0.3 {
			sp.Variances[i] = 0.05 + rng.Float64()*varScale
		}
	}
	return sp
}

// Generate returns a random valid model spec drawn from rng: 2–40 states
// on a ring (for irreducibility) with extra random transitions, drift
// rates of mixed sign in [-3, 3], variances that are exactly zero with
// probability ~0.3 (exercising the first-order/degenerate paths) and
// positive otherwise, optional impulse rewards on existing transitions,
// and an initial distribution that is a unit vector half the time and a
// normalized random vector otherwise.
func Generate(rng *rand.Rand) *spec.Model {
	n := 2 + rng.Intn(39)
	sp := newSpec(rng, n, 3, 1.5)

	// Ring backbone keeps every state reachable; extras densify.
	for i := 0; i < n; i++ {
		sp.Transitions = append(sp.Transitions, spec.Transition{
			From: i, To: (i + 1) % n, Rate: 0.2 + rng.Float64()*2.8,
		})
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		sp.Transitions = append(sp.Transitions, spec.Transition{
			From: from, To: to, Rate: 0.1 + rng.Float64()*2,
		})
	}

	if rng.Float64() < 0.4 {
		imp := 1 + rng.Intn(3)
		if imp > len(sp.Transitions) {
			imp = len(sp.Transitions) // 2-state models can have just 2 transitions
		}
		for _, k := range rng.Perm(len(sp.Transitions))[:imp] {
			tr := sp.Transitions[k]
			sp.Impulses = append(sp.Impulses, spec.Impulse{
				From: tr.From, To: tr.To, Reward: rng.Float64(),
			})
		}
	}

	if rng.Float64() < 0.5 {
		sp.Initial[rng.Intn(n)] = 1
	} else {
		var sum float64
		for i := range sp.Initial {
			sp.Initial[i] = 0.1 + rng.Float64()
			sum += sp.Initial[i]
		}
		imax := 0
		for i := range sp.Initial {
			sp.Initial[i] /= sum
			if sp.Initial[i] > sp.Initial[imax] {
				imax = i
			}
		}
		// Absorb rounding so the distribution sums to 1 exactly.
		var rest float64
		for i, p := range sp.Initial {
			if i != imax {
				rest += p
			}
		}
		sp.Initial[imax] = 1 - rest
	}
	return sp
}

// GenerateBirthDeath returns a random birth–death spec drawn from rng,
// the corpus whose uniformized generators fit the tridiagonal band
// window (Generate's ring backbone makes every model with three or more
// states wider than tridiagonal). The shape rotates over full
// birth–death chains (tridiagonal), pure-birth and pure-death chains
// ending in an absorbing state (bidiagonal), and 2-state chains; sizes
// run 2–40 states. Drifts, variances and the initial distribution
// follow Generate, and about half the models carry impulse rewards on
// existing transitions.
func GenerateBirthDeath(rng *rand.Rand) *spec.Model {
	shape := rng.Intn(4)
	n := 2 + rng.Intn(39)
	if shape == 3 {
		n = 2
	}
	sp := newSpec(rng, n, 3, 1.5)
	for i := 0; i+1 < n; i++ {
		if shape != 2 { // births: all shapes but pure death
			sp.Transitions = append(sp.Transitions, spec.Transition{From: i, To: i + 1, Rate: 0.2 + rng.Float64()*2.8})
		}
		if shape != 1 { // deaths: all shapes but pure birth
			sp.Transitions = append(sp.Transitions, spec.Transition{From: i + 1, To: i, Rate: 0.2 + rng.Float64()*2.8})
		}
	}
	if rng.Float64() < 0.5 {
		for _, k := range rng.Perm(len(sp.Transitions))[:1+rng.Intn(len(sp.Transitions))] {
			tr := sp.Transitions[k]
			sp.Impulses = append(sp.Impulses, spec.Impulse{From: tr.From, To: tr.To, Reward: rng.Float64()})
		}
	}
	sp.Initial[rng.Intn(n)] = 1
	return sp
}

// GenerateComponent returns a random impulse-free component spec for
// composition tests: 2–10 states on a ring with extra random transitions,
// mixed-sign drifts and optional zero variances, like Generate but sized
// so that products of a few components stay solvable.
func GenerateComponent(rng *rand.Rand) *spec.Model {
	n := 2 + rng.Intn(9)
	sp := newSpec(rng, n, 2, 1)
	for i := 0; i < n; i++ {
		sp.Transitions = append(sp.Transitions, spec.Transition{
			From: i, To: (i + 1) % n, Rate: 0.2 + rng.Float64()*1.8,
		})
	}
	for e := rng.Intn(n); e > 0; e-- {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		sp.Transitions = append(sp.Transitions, spec.Transition{
			From: from, To: to, Rate: 0.1 + rng.Float64(),
		})
	}
	sp.Initial[rng.Intn(n)] = 1
	return sp
}

// GenerateComposed returns 2–4 independent component specs whose product
// state space is capped at a few thousand states, the seeded corpus for
// the composition difftests.
func GenerateComposed(rng *rand.Rand) []*spec.Model {
	comps := make([]*spec.Model, 2+rng.Intn(3))
	product := 1
	for i := range comps {
		comps[i] = GenerateComponent(rng)
		product *= comps[i].States
	}
	// Cap the product so the corpus stays fast: shrink the largest
	// component (deterministically) until the joint model is small.
	for product > 2000 {
		imax := 0
		for i, c := range comps {
			if c.States > comps[imax].States {
				imax = i
			}
		}
		product /= comps[imax].States
		comps[imax] = &spec.Model{
			States:      2,
			Rates:       comps[imax].Rates[:2],
			Variances:   comps[imax].Variances[:2],
			Initial:     []float64{1, 0},
			Transitions: []spec.Transition{{From: 0, To: 1, Rate: 1}, {From: 1, To: 0, Rate: 1.5}},
		}
		product *= 2
	}
	return comps
}

// CheckComposed builds the components, composes them, and checks the
// composed solve — per-component solves folded by moment convolution —
// against an independent oracle: the randomization sweep over the
// materialized product chain (see CheckProductSweep).
func CheckComposed(comps []*spec.Model, times []float64, order int) error {
	_, joint, err := BuildComposed(comps)
	if err != nil {
		return err
	}
	return CheckProductSweep(joint, times, order)
}

// CheckProductSweep solves a composed model (materialized, at most
// core.ComposeMaterializeThreshold states) and its product chain as a
// plain model, and requires every moment to agree within the sum of the
// two error bounds — the composed solve's propagated bound and the
// sweep's eq. 11 bound — plus roundoff (roundRelTol).
func CheckProductSweep(joint *core.Model, times []float64, order int) error {
	product, err := ProductModel(joint)
	if err != nil {
		return err
	}
	got, err := joint.AccumulatedRewardAt(times, order, nil)
	if err != nil {
		return fmt.Errorf("composed solve: %w", err)
	}
	want, err := product.AccumulatedRewardAt(times, order, nil)
	if err != nil {
		return fmt.Errorf("product sweep: %w", err)
	}
	for k, t := range times {
		bound := got[k].Stats.ErrorBound + want[k].Stats.ErrorBound
		for j := 0; j <= order; j++ {
			if err := within(got[k].Moments[j], want[k].Moments[j], bound); err != nil {
				return fmt.Errorf("t=%g moment %d: composed vs product sweep: %w", t, j, err)
			}
		}
	}
	return nil
}

// ProductModel returns a materialized composed model's product chain as a
// plain model: same generator, rewards and initial distribution, but
// solved by sweeping the product like any other model.
func ProductModel(joint *core.Model) (*core.Model, error) {
	gen := joint.Generator()
	if gen == nil {
		return nil, fmt.Errorf("composed model of %d states is matrix-free; no product to sweep", joint.N())
	}
	m, err := core.New(gen, joint.Rates(), joint.Variances(), joint.Initial())
	if err != nil {
		return nil, fmt.Errorf("product model: %w", err)
	}
	return m, nil
}

// BuildComposed builds every component spec and composes the models,
// returning the components and the joint model.
func BuildComposed(comps []*spec.Model) ([]*core.Model, *core.Model, error) {
	models := make([]*core.Model, len(comps))
	for i, sp := range comps {
		m, err := sp.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("component %d build: %w", i, err)
		}
		models[i] = m
	}
	joint, err := core.ComposeAll(models...)
	if err != nil {
		return nil, nil, fmt.Errorf("compose: %w", err)
	}
	return models, joint, nil
}

// CheckComposedSeed generates the composed corpus entry for seed and
// cross-checks it on a small time grid drawn from the same seed.
func CheckComposedSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	comps := GenerateComposed(rng)
	order := 1 + rng.Intn(3)
	times := make([]float64, 1+rng.Intn(2))
	for i := range times {
		times[i] = 0.1 + rng.Float64()
	}
	if err := CheckComposed(comps, times, order); err != nil {
		return fmt.Errorf("composed seed %d (%d components, order %d): %w", seed, len(comps), order, err)
	}
	return nil
}

// Tolerances for cross-solver agreement. The ODE baseline integrates with
// RK4 at its automatic step count, so its error dominates; the closed-form
// comparison is tighter. Comparisons against a provable error bound allow
// roundRelTol on top of it for floating-point roundoff.
const (
	odeRelTol    = 1e-6
	closedRelTol = 1e-10
	roundRelTol  = 1e-12
)

// CheckModel solves sp at every time in times up to moment order with the
// randomization solver and the RK4 ODE baseline and returns an error on
// the first disagreement. For single-state models it additionally checks
// both against the exact normal-moment recurrence.
func CheckModel(sp *spec.Model, times []float64, order int) error {
	model, err := sp.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	randRes, err := model.AccumulatedRewardAt(times, order, nil)
	if err != nil {
		return fmt.Errorf("randomization: %w", err)
	}
	pi := model.Initial()
	for k, t := range times {
		vm, err := odesolver.MomentsByODE(model, t, order, nil)
		if err != nil {
			return fmt.Errorf("ode at t=%g: %w", t, err)
		}
		for j := 0; j <= order; j++ {
			var odeM float64
			for i, p := range pi {
				odeM += p * vm[j][i]
			}
			if err := agree(randRes[k].Moments[j], odeM, odeRelTol); err != nil {
				return fmt.Errorf("t=%g moment %d: randomization vs ode: %w", t, j, err)
			}
		}
		if sp.States == 1 {
			for j := 0; j <= order; j++ {
				exact, err := brownian.NormalRawMoment(j, sp.Rates[0]*t, sp.Variances[0]*t)
				if err != nil {
					return fmt.Errorf("closed form: %w", err)
				}
				if err := agree(randRes[k].Moments[j], exact, closedRelTol); err != nil {
					return fmt.Errorf("t=%g moment %d: randomization vs closed form: %w", t, j, err)
				}
			}
		}
	}
	return nil
}

// pollCountdown is a context that reports cancellation after its Err
// method has been polled a fixed number of times. With CancelStride 1 the
// solver polls once on entry and then at every iteration barrier, so a
// budget of p interrupts the sweep exactly before iteration p.
type pollCountdown struct {
	context.Context
	polls int
}

func (c *pollCountdown) Err() error {
	if c.polls <= 0 {
		return context.DeadlineExceeded
	}
	c.polls--
	return nil
}

// resumeBarriers picks the interrupt points for CheckResumeModel: every
// iteration barrier when the sweep is short, otherwise an even spread that
// always includes the first and last.
func resumeBarriers(g int) []int {
	if g <= 24 {
		out := make([]int, g)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := []int{1}
	for i := 1; i <= 10; i++ {
		out = append(out, i*g/11)
	}
	return append(out, g)
}

// CheckResumeModel is the checkpoint/resume bitwise gate for one solver
// configuration: it solves the model uninterrupted, then interrupts the
// same solve at a spread of iteration barriers, serializes and re-decodes
// each captured checkpoint, resumes it, and fails on the first resumed
// moment (scalar or per-state) that is not bitwise identical to the
// uninterrupted run.
func CheckResumeModel(model *core.Model, times []float64, order int, opts core.Options) error {
	return CheckResumeAcross(model, times, order, opts, opts)
}

// CheckResumeAcross is CheckResumeModel with distinct capture and resume
// configurations: checkpoints are captured under captureOpts and resumed
// under resumeOpts. Checkpoint tokens are interchangeable across solver
// settings — a temporally blocked solve must resume a checkpoint from an
// unblocked one (and vice versa) to the bitwise-identical result, since
// blocking only moves the cancellation barriers to blocked-iteration
// group boundaries.
func CheckResumeAcross(model *core.Model, times []float64, order int, captureOpts, resumeOpts core.Options) error {
	full, err := model.AccumulatedRewardAt(times, order, &resumeOpts)
	if err != nil {
		return fmt.Errorf("uninterrupted solve: %w", err)
	}
	g := 0
	for _, r := range full {
		if r.Stats.G > g {
			g = r.Stats.G
		}
	}
	if g < 1 {
		return nil // frozen or degenerate chain: no sweep to interrupt
	}
	// Under temporal blocking the sweep only polls at blocked-iteration
	// group boundaries, so the interruptible barriers are the group
	// starts: learn the resolved depth of the capture configuration from
	// its own stats (1 when blocking stays off).
	probe, err := model.AccumulatedRewardAt(times, order, &captureOpts)
	if err != nil {
		return fmt.Errorf("capture-config solve: %w", err)
	}
	depth := 1
	for _, r := range probe {
		if r.Stats.G == g && r.Stats.TemporalBlock > depth {
			depth = r.Stats.TemporalBlock
		}
	}
	for _, polls := range resumeBarriers((g + depth - 1) / depth) {
		iopts := captureOpts
		iopts.Checkpoint = true
		iopts.CancelStride = 1
		ctx := &pollCountdown{Context: context.Background(), polls: polls}
		_, err := model.AccumulatedRewardAtContext(ctx, times, order, &iopts)
		var ir *core.Interrupted
		if !errors.As(err, &ir) {
			return fmt.Errorf("interrupt before barrier %d: want *core.Interrupted, got %w", polls, err)
		}
		if want := (polls - 1) * depth; ir.Checkpoint.Completed != want {
			return fmt.Errorf("interrupt before barrier %d (depth %d): checkpoint completed %d, want %d",
				polls, depth, ir.Checkpoint.Completed, want)
		}
		cp, err := core.DecodeCheckpoint(ir.Checkpoint.Encode())
		if err != nil {
			return fmt.Errorf("checkpoint round trip at %d/%d: %w", ir.Checkpoint.Completed, g, err)
		}
		ropts := resumeOpts
		ropts.Resume = cp
		resumed, err := model.AccumulatedRewardAt(times, order, &ropts)
		if err != nil {
			return fmt.Errorf("resume from %d/%d: %w", cp.Completed, g, err)
		}
		for k := range full {
			for j := 0; j <= order; j++ {
				if math.Float64bits(resumed[k].Moments[j]) != math.Float64bits(full[k].Moments[j]) {
					return fmt.Errorf("resume from %d/%d: t=%g moment %d = %x, uninterrupted %x",
						cp.Completed, g, times[k], j,
						math.Float64bits(resumed[k].Moments[j]), math.Float64bits(full[k].Moments[j]))
				}
				fv, rv := full[k].StateMoments()[j], resumed[k].StateMoments()[j]
				for i := range fv {
					if math.Float64bits(rv[i]) != math.Float64bits(fv[i]) {
						return fmt.Errorf("resume from %d/%d: t=%g vm[%d][%d] differs bitwise",
							cp.Completed, g, times[k], j, i)
					}
				}
			}
		}
	}
	return nil
}

// CheckResume builds sp and runs CheckResumeModel on it.
func CheckResume(sp *spec.Model, times []float64, order int, opts core.Options) error {
	model, err := sp.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	return CheckResumeModel(model, times, order, opts)
}

// within reports an error unless |a-b| <= bound + roundRelTol·max(1,|a|,|b|).
func within(a, b, bound float64) error {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return fmt.Errorf("%g vs %g", a, b)
	}
	tol := bound + roundRelTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	if math.Abs(a-b) > tol {
		return fmt.Errorf("%g vs %g (diff %g, tol %g)", a, b, math.Abs(a-b), tol)
	}
	return nil
}

// agree reports whether a and b match within rel (relative to their
// magnitude, with an absolute floor of the same size for values near zero).
func agree(a, b, rel float64) error {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return fmt.Errorf("%g vs %g", a, b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	if math.Abs(a-b) > rel*scale {
		return fmt.Errorf("%g vs %g (diff %g, tol %g)", a, b, math.Abs(a-b), rel*scale)
	}
	return nil
}

// CheckSeed generates the model for seed and cross-checks it on a small
// random time grid and moment order drawn from the same seed.
func CheckSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	sp := Generate(rng)
	order := 1 + rng.Intn(4)
	times := make([]float64, 1+rng.Intn(3))
	for i := range times {
		times[i] = 0.1 + rng.Float64()*1.9
	}
	if err := CheckModel(sp, times, order); err != nil {
		return fmt.Errorf("seed %d (%d states, order %d): %w", seed, sp.States, order, err)
	}
	return nil
}
