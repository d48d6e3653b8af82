package experiments

import (
	"fmt"
	"time"

	"somrm/internal/core"
	"somrm/internal/models"
)

// LargePoint is one time point of Figure 8 / Table 2.
type LargePoint struct {
	T float64
	// Moments[j] = E[B(t)^j], j = 0..3.
	Moments []float64
	// Stats reports G, q, qt and the flop count per iteration the paper
	// quotes for the large model.
	Stats core.Stats
}

// LargeData holds the Figure 8 / Table 2 reproduction.
type LargeData struct {
	// N is the source count used (200,000 for the full paper run).
	N      int
	Points []LargePoint
	// Elapsed is the wall time of the one solve behind every point.
	Elapsed time.Duration
}

// FigLarge evaluates the first three moments of the large ON-OFF model at
// the paper's five time points (0.01..0.05) with eps = 1e-9, in one
// randomization sweep up to the largest point's truncation point (see
// core.Model.AccumulatedRewardAt; each point's moments are bitwise those
// of its own solve). scale divides the source count: scale=1 is the full
// N=200,000 paper model (tens of seconds of CPU); the harness default is
// scale=100 (N=2,000), which preserves the structure (tridiagonal Q', 3
// nonzeros per row) at laptop cost.
func FigLarge(scale int, eps float64) (*LargeData, error) {
	if scale < 1 {
		return nil, fmt.Errorf("%w: scale %d", ErrBadArgument, scale)
	}
	p := models.PaperLarge()
	p.N /= scale
	p.C /= float64(scale)
	if p.N < 2 {
		return nil, fmt.Errorf("%w: scale %d leaves %d sources", ErrBadArgument, scale, p.N)
	}
	m, err := models.OnOff(p)
	if err != nil {
		return nil, err
	}
	if eps == 0 {
		eps = 1e-9
	}
	start := time.Now()
	results, err := m.AccumulatedRewardAt([]float64{0.01, 0.02, 0.03, 0.04, 0.05}, 3, &core.Options{Epsilon: eps})
	if err != nil {
		return nil, fmt.Errorf("experiments: large model: %w", err)
	}
	out := &LargeData{N: p.N, Elapsed: time.Since(start)}
	for _, res := range results {
		out.Points = append(out.Points, LargePoint{T: res.T, Moments: res.Moments, Stats: res.Stats})
	}
	return out, nil
}
