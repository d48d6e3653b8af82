package sparse

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// This file implements the randomization sweep engine: the k = 1..G
// recursion of Theorems 3-4,
//
//	next[j] = A·cur[j] + diag1·cur[j-1] + diag2·cur[j-2]
//	          + Σ_m coef[m]·imp[m-1]·cur[j-m]
//
// for j = 0..order, followed by the Poisson-weighted accumulation
// acc[j] += w_k·next[j] for every active time plan. The sweep dominates
// every large solve (the paper's N = 200,001 example runs G ≈ 41,588
// iterations of it), so instead of issuing order+1 independent
// matrix-vector products per iteration — each spawning and joining its own
// goroutine team, then re-streaming the vectors for the diagonal terms and
// again for every time plan's accumulation — the fused kernel makes a
// single pass over each CSR row block: all per-row work (products,
// diagonal terms, impulse terms, accumulations) happens while the row's
// slice of cur/next is hot in cache.
//
// The worker team is persistent: row ranges are partitioned once per
// solve, balanced by non-zero count rather than row count, and the same
// goroutines run every iteration, synchronizing on a lightweight
// channel barrier instead of being respawned G times.
//
// Per element, the fused kernel performs exactly the same floating-point
// operations in exactly the same order as the serial reference sweep
// (RunReference), so the two agree bit for bit for every worker count.
// The fused kernel is the production path at every model size: below
// parallelThreshold rows it runs as a 1-worker team inline, with no
// goroutines and no barrier. The reference sweep is only the oracle the
// regression and differential tests compare against.

// SweepPlan describes one time point's Poisson accumulation during a
// sweep. Weight[k] is the Poisson probability of iteration k; only
// iterations k in [First, Last] accumulate — the effective window outside
// of which the pmf underflows to zero (for large qt the head of the
// distribution is exactly zero in float64, so clipping it skips the whole
// accumulation pass for those iterations). A plan with Last < First never
// accumulates (used for t = 0 entries of a time grid).
type SweepPlan struct {
	// First and Last bound the accumulating iterations (inclusive).
	First, Last int
	// Weight[k] is the Poisson pmf at k; len(Weight) must exceed Last.
	Weight []float64
	// Acc[j][i] accumulates Σ_k Weight[k]·U^(j)(k)[i] for j = 0..order.
	Acc [][]float64
}

// accPair is one resolved accumulation target for the current iteration.
type accPair struct {
	w   float64
	acc [][]float64
}

// Sweep is a prepared randomization sweep over a fixed matrix family:
// the uniformized generator a, the diagonal first- and second-order
// reward terms, and optional impulse matrices imp[m-1] applied with
// coefficient 1/m!. Build one per solve with NewSweep, then execute it
// with Run (fused kernel, the production path) or RunReference (serial
// test oracle).
type Sweep struct {
	a            *CSR
	rows         int
	diag1, diag2 []float64
	imp          []*CSR
	coef         []float64 // coef[m] = 1/m!, the impulse term coefficients
	order        int
	workers      int
	blocks       []int // blocks[w]..blocks[w+1] is worker w's row range

	// Tuning knobs (see SetSweepTile / SetTemporalBlock): tile is the
	// spatial row-tile width of the fused kernels and the block width of
	// the temporally blocked driver; tblock is the requested temporal
	// block depth (0 auto, 1 off, >= 2 forced); resolvedT records the
	// depth the last Run actually used (1 when it ran unblocked).
	tile      int
	tblock    int
	resolvedT int

	// wf carries the per-group wavefront state of the temporally blocked
	// parallel driver; nil for every other run shape.
	wf *wavefrontGroup

	// SIMD dispatch (see simd.go): nosimd is the per-sweep kill-switch
	// (SetNoSIMD), simd the resolved gate (hardware support minus the
	// kill-switches), kernel the label of the last run's dispatch.
	nosimd bool
	simd   bool
	kernel string

	// Resolved storage (see MatrixFormat): the fused kernels stream the
	// tridiagonal band planes, QBD windows or compact uint32 column
	// indexes — one order-3 kernel per structure — cutting the memory
	// traffic of this bandwidth-bound loop. All formats are bitwise
	// identical.
	format MatrixFormat
	band   *Band    // set when format == FormatBand
	col32  []uint32 // set when format == FormatCSR32
	qbd    *QBD     // set when format == FormatQBD

	// scratch4 is optional caller-lent backing for cur4/next4 (see
	// SetScratch4), letting pooled solves skip the two largest per-run
	// allocations.
	scratch4 []float64

	// onInterrupt, when set, is invoked at the iteration barrier where a
	// context cancellation is observed, before Run returns the context's
	// error (see SetInterruptHook). It is the seam checkpointable solves
	// hang their snapshot capture on.
	onInterrupt InterruptHook

	// Iteration state published by the driver before each barrier release;
	// the channel synchronization orders these writes before the workers'
	// reads. cur4/next4 replace cur/next for the order-3 impulse-free
	// shape: the row-lane plane layout on the band format (see
	// fuseBlock3Band), the interleaved layout on CSR32 and QBD (see
	// fuseBlock3Compact).
	cur, next   [][]float64
	cur4, next4 []float64
	active      []accPair
}

// parallelThreshold is the row count at which automatic worker selection
// moves from the inline 1-worker fused sweep to a GOMAXPROCS team. The
// team pays a release and join barrier every iteration (or a wavefront
// handshake per block step) to split rows the inline sweep already runs
// from L1 in 128-row blocks, so small models gain nothing from it: on a
// 2-core Xeon a 2-worker team takes 2.4× the inline sweep's time at
// 2,001 tridiagonal rows, 1.3× at 4,095 and 8,191, and still 1.2× at
// 16,383 (BenchmarkSweep/N*/{fused-1,workers-2} in internal/core,
// medians of 5 in BENCH_sweep.json). The threshold stays where the
// team paid off before the L1-blocked kernel, and large models keep
// the team. Callers that know better force a team size explicitly.
const parallelThreshold = 16_384

// PlanWorkers resolves the sweep parallelism knob for a matrix with the
// given number of rows:
//
//   - requested > 0 forces the fused kernel with that many workers
//     (capped at rows), regardless of size;
//   - requested == 0 selects automatically: the fused kernel at every
//     size, as a 1-worker team (run inline) below parallelThreshold rows
//     and a team of GOMAXPROCS workers (capped at rows) at or above it;
//   - requested < 0 selects the serial reference sweep (returns 0), the
//     oracle tests compare the fused kernel against.
//
// The returned count is 0 for "use RunReference" and >= 1 for "use Run
// with this team size". Every choice yields bitwise identical results.
func PlanWorkers(requested, rows int) int {
	if requested < 0 {
		return 0
	}
	if requested == 0 {
		if rows < parallelThreshold {
			return 1
		}
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > rows {
		requested = rows
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// NewSweep validates the matrix family and partitions the rows for a team
// of the given size. diag2 must already carry any constant factor (the
// solver passes ½·S'). imp may be empty; when present it must hold at
// least order matrices (imp[m-1] multiplies cur[j-m] for every m <= j).
// The sweep matrix's storage is selected automatically (FormatAuto); use
// NewSweepWithFormat to force a representation.
func NewSweep(a *CSR, diag1, diag2 []float64, imp []*CSR, order, workers int) (*Sweep, error) {
	return NewSweepWithFormat(a, diag1, diag2, imp, order, workers, FormatAuto)
}

// NewSweepWithFormat is NewSweep with an explicit storage format for the
// sweep matrix. Impulse matrices always stay generic CSR — they are rare
// and never dominate the traffic. Every format yields bitwise identical
// results; Format reports the resolved choice.
func NewSweepWithFormat(a *CSR, diag1, diag2 []float64, imp []*CSR, order, workers int, format MatrixFormat) (*Sweep, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil sweep matrix", ErrDimensionMismatch)
	}
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: sweep matrix %dx%d not square", ErrDimensionMismatch, a.rows, a.cols)
	}
	if len(diag1) != a.rows || len(diag2) != a.rows {
		return nil, fmt.Errorf("%w: diagonals %d/%d for %d rows", ErrDimensionMismatch, len(diag1), len(diag2), a.rows)
	}
	if order < 0 {
		return nil, fmt.Errorf("%w: sweep order %d", ErrDimensionMismatch, order)
	}
	if len(imp) > 0 && len(imp) < order {
		return nil, fmt.Errorf("%w: %d impulse matrices for order %d", ErrDimensionMismatch, len(imp), order)
	}
	for m, im := range imp {
		if im == nil || im.rows != a.rows || im.cols != a.cols {
			return nil, fmt.Errorf("%w: impulse matrix %d", ErrDimensionMismatch, m+1)
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > a.rows {
		workers = a.rows
	}
	resolved, band, col32, qbd, err := resolveStorage(a, format)
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		a:         a,
		rows:      a.rows,
		diag1:     diag1,
		diag2:     diag2,
		imp:       imp,
		order:     order,
		workers:   workers,
		format:    resolved,
		band:      band,
		col32:     col32,
		qbd:       qbd,
		tile:      sweepTileDefault,
		resolvedT: 1,
	}
	if resolved == FormatBand && workers == 1 {
		s.tile = bandL1Tile
	}
	s.resolveSIMD()
	s.initCoef()
	if workers > 1 {
		// Per-row work in stored non-zeros, plus the impulse matrices'
		// entries and the constant rowBase charge.
		s.blocks = partitionRows(a.rows, workers, func(i int) int64 {
			c := int64(rowBase + a.rowPtr[i+1] - a.rowPtr[i])
			for _, im := range imp {
				c += int64(im.rowPtr[i+1] - im.rowPtr[i])
			}
			return c
		})
	}
	return s, nil
}

// initCoef fills coef[m] = 1/m! maintained by the same running division
// the reference recursion uses, so fused impulse terms match it bit for
// bit.
func (s *Sweep) initCoef() {
	s.coef = make([]float64, s.order+1)
	inv := 1.0
	for m := 1; m <= s.order; m++ {
		inv /= float64(m)
		s.coef[m] = inv
	}
}

// rowBase is the constant per-row partitioning charge beyond the matrix
// entries: diagonal terms, the next-vector store, and accumulation
// traffic.
const rowBase = 4

// partitionRows splits the rows into contiguous blocks of roughly equal
// work under the given per-row cost function. Row-count splitting is
// wrong for skewed patterns — a dense hub row costs as much as thousands
// of tridiagonal rows — so rows are charged their stored non-zeros.
func partitionRows(rows, workers int, rowCost func(int) int64) []int {
	var total int64
	for i := 0; i < rows; i++ {
		total += rowCost(i)
	}
	blocks := make([]int, workers+1)
	blocks[workers] = rows
	b := 1
	var cum int64
	for i := 0; i < rows && b < workers; i++ {
		cum += rowCost(i)
		// Cut after row i once this block reached its share of the total.
		for b < workers && cum*int64(workers) >= int64(b)*total {
			blocks[b] = i + 1
			b++
		}
	}
	for ; b < workers; b++ {
		blocks[b] = rows
	}
	return blocks
}

// Format returns the resolved storage format: FormatBand, FormatQBD or
// FormatCSR32 for the fused kernels, and FormatCSR64 for a sweep built
// for the reference oracle, which only RunReference may execute. (The
// RunReference test oracle always streams the generic CSR regardless of
// this setting.)
func (s *Sweep) Format() MatrixFormat { return s.format }

// Scratch4Words returns the float64 count Run would use for its order-3
// moment-state buffers: 0 when the run shape doesn't use them (order !=
// 3, impulse terms present, or the reference-only csr64 storage),
// otherwise two buffers of 4 moments per state — for the band format
// four planes of bandPlaneStride(rows) words each (padding cells
// included), for CSR32 and QBD 4·rows interleaved words.
func (s *Sweep) Scratch4Words() int {
	if s.order != 3 || len(s.imp) > 0 || s.format == FormatCSR64 {
		return 0
	}
	if s.format == FormatBand {
		return 2 * 4 * s.band.stride
	}
	return 2 * 4 * s.rows
}

// SetScratch4 lends Run a scratch buffer of at least Scratch4Words()
// float64s for its order-3 state (contents need not be zeroed),
// eliminating the two largest per-run allocations; pooled solves use it.
// A short (or nil) buffer is ignored and Run allocates as before. The
// buffer is used only while Run executes and may be reused afterwards.
func (s *Sweep) SetScratch4(buf []float64) { s.scratch4 = buf }

// SetSweepTile overrides the row-tile width of the fused kernels — the
// rows each tight vector pass covers before the next term's pass — and
// with it the block width of the temporally blocked driver, so spatial
// and temporal tile shapes are tunable together. Values below 1 keep the
// default (bandL1Tile for a 1-worker band sweep, sweepTileDefault
// otherwise). The tile only reorders work across rows; every width is
// bitwise identical.
func (s *Sweep) SetSweepTile(w int) {
	if w > 0 {
		s.tile = w
	}
}

// SetTemporalBlock requests wavefront temporal blocking for Run: t
// consecutive sweep iterations are executed over each cache-resident row
// block before the next block is touched (see runBlocked). 0 (the
// default) tunes the depth automatically from the matrix bandwidth and
// the state footprint; 1 or negative disables blocking; larger values
// force that depth (capped at maxTemporalBlock) wherever blocking is
// structurally possible. Every setting is bitwise identical to the
// unblocked sweep; TemporalBlock reports what the last Run resolved.
func (s *Sweep) SetTemporalBlock(t int) {
	if t > maxTemporalBlock {
		t = maxTemporalBlock
	}
	s.tblock = t
}

// TemporalBlock returns the temporal blocking depth the last Run
// resolved: 1 for an unblocked run (including every RunReference), the
// group depth T otherwise.
func (s *Sweep) TemporalBlock() int { return s.resolvedT }

// Temporal blocking constants.
const (
	// sweepTileDefault is the default row-tile width (see SetSweepTile)
	// of every sweep but the 1-worker band one: a tile's slices of every
	// cur/next/acc vector — roughly (3 + plans)·(order+1)·8·tile bytes —
	// plus its matrix rows must stay cache-resident across the kernel's
	// per-term passes. 1024 rows keeps that footprint near 100 KiB for
	// the paper-sized order-3 case, comfortably inside L2, and is the
	// block width of the multi-worker wavefront.
	sweepTileDefault = 1024
	// bandL1Tile is the default tile, and so the temporal block width, of
	// a 1-worker band sweep: a 128-row block's slices of the ≈17 row-lane
	// planes it touches (3 band, 2 diagonals, 4 cur, 4 next, 4 acc) come
	// to ≈17 KiB and stay in L1 across a group's T inner steps, where the
	// 1024-row block ran from L2.
	bandL1Tile = 128
	// temporalBlockDefault is the auto-tuned blocking depth: deep enough
	// to cut DRAM traffic ~16x, shallow enough that the halo shift
	// (T-1)·skew stays a small fraction of the default block width.
	// Tuned on the paper's N=100,001 tridiagonal example, where depth 16
	// beat 8 by ~15% and 32 added nothing.
	temporalBlockDefault = 16
	// maxTemporalBlock caps forced depths; beyond it the halo bookkeeping
	// dwarfs any conceivable traffic win.
	maxTemporalBlock = 1024
	// temporalBlockMinWords is the interleaved-state footprint below which
	// the automatic policy leaves CSR32 and QBD sweeps unblocked: a state
	// set this small (2 MiB for both buffers) is already L2-resident, and
	// their gathering kernels gain nothing from re-running iterations over
	// L2 blocks. The band format does not consult it: its row-lane blocks
	// are sized for L1 and pay from two blocks up (see resolveBlocking).
	temporalBlockMinWords = 1 << 18
	// csrAutoBlockMaxSkew bounds the matrix bandwidth up to which the
	// automatic policy temporally blocks the vectorized CSR32 kernel —
	// the same reach ceiling the auto QBD policy implies (blocks of up
	// to maxAutoQBDBlock phases reach 2b-1 rows). Beyond it the policy
	// has no measurement and stays unblocked.
	csrAutoBlockMaxSkew = 2*maxAutoQBDBlock - 1
)

// blockReach returns the dependency reach of the resolved storage: row i
// of the next iteration depends on rows i-lo..i+hi of the current one.
// ok is false when the reach is unknown (the reference-only csr64
// storage), which disables temporal blocking.
func (s *Sweep) blockReach() (lo, hi int, ok bool) {
	switch s.format {
	case FormatBand:
		// The window kernel reads both neighbours of every row, padded
		// cells included, so its reach is 1 even for a diagonal matrix.
		return 1, 1, true
	case FormatQBD:
		// A QBD entry couples level i/b only to adjacent levels, so the
		// scalar reach is at most 2b-1 on both sides.
		r := 2*s.qbd.b - 1
		return r, r, true
	case FormatCSR32:
		lo, hi = s.a.Bandwidth()
		return lo, hi, true
	}
	return 0, 0, false
}

// resolveBlocking turns the requested temporal block depth into the
// (T, W, skew) the blocked drivers run: T inner iterations per group over
// blocks of W rows, each inner step's row window sliding skew rows to the
// left (the parallelogram schedule of runBlocked). T == 1 means the
// run stays unblocked. W is forced up to 2·skew — the width at which
// concurrent wavefront tasks provably cannot touch each other's reads or
// writes (see wavefrontWorker) — so callers may set any tile size.
func (s *Sweep) resolveBlocking() (T, W, skew int) {
	T, W = 1, s.tile
	if s.tblock < 0 || s.tblock == 1 {
		return
	}
	lo, hi, ok := s.blockReach()
	if !ok {
		return
	}
	skew = lo
	if hi > skew {
		skew = hi
	}
	if W < 2*skew {
		W = 2 * skew
	}
	if W < 1 {
		W = 1
	}
	if s.tblock == 0 {
		if s.format == FormatBand {
			// The row-lane band kernel is bound by the cache level its
			// state streams from, so blocking pays at every size that
			// holds two blocks: one worker runs L1-sized bandL1Tile
			// blocks (the state otherwise streams from L2 even at 2,001
			// rows), a team the sweepTileDefault wavefront.
			if s.rows < 2*W {
				return 1, W, skew
			}
		} else if s.Scratch4Words() < temporalBlockMinWords {
			return 1, W, skew // state already cache-resident: blocking cannot pay
		}
		switch s.format {
		case FormatBand, FormatQBD:
			// The index-free formats are memory-bound and always gain.
		case FormatCSR32:
			// The scalar CSR kernel gains nothing from blocking (the
			// index-chasing row loop, not DRAM bandwidth, is the
			// bottleneck, and the wavefront bookkeeping costs ~12-29%
			// measured). The AVX2 kernel retires the whole gather in one
			// load and is memory-bound like the band kernel — blocking
			// it measured ~22% faster on the N=100,001 ablation — so it
			// auto-blocks, but only while the bandwidth-derived skew is
			// in the regime the measurement covered (wider reaches force
			// W up and shrink the depth until blocking is all halo).
			// Forced depths still block every CSR shape for the difftest
			// gates and benchmark ablations.
			if !s.simd || skew > csrAutoBlockMaxSkew {
				return 1, W, skew
			}
		default:
			return 1, W, skew
		}
		T = temporalBlockDefault
		if skew > 0 {
			// Keep the total halo shift under half a block, so the extra
			// rows a group streams stay a small fraction of W.
			if c := 1 + W/(2*skew); T > c {
				T = c
			}
		}
		return
	}
	T = s.tblock
	return
}

// InterruptHook observes a sweep interruption. It runs exactly at an
// iteration barrier: iteration `completed` has fully finished (every
// worker joined, accumulations applied, state swapped) and iteration
// completed+1 has not started, so the sweep state is a consistent
// snapshot. export copies the current moment-state vectors U^(j)(completed)
// into dst — order+1 vectors of Rows() entries each — out of the order-3
// layout when the run uses it. A sweep resumed from that state
// with RunFrom(ctx, completed+1, ...) is bitwise identical to the
// uninterrupted run.
type InterruptHook func(completed int, export func(dst [][]float64))

// SetInterruptHook installs the hook Run and RunReference invoke when a
// context cancellation is observed mid-sweep (nil disables). The hook runs
// on the driver goroutine while every worker is parked at the release
// barrier, so it may read any sweep state without synchronization.
func (s *Sweep) SetInterruptHook(h InterruptHook) { s.onInterrupt = h }

// exportState copies the current moment-state vectors into dst, out of
// the band's row-lane planes or the interleaved order-3 layout when
// active. Only called at iteration barriers (see InterruptHook), where
// the published state is consistent.
func (s *Sweep) exportState(dst [][]float64) {
	switch {
	case s.cur4 == nil:
		for j := range dst {
			copy(dst[j], s.cur[j])
		}
	case s.format == FormatBand:
		st := s.band.stride
		for j := range dst {
			copy(dst[j], s.cur4[j*st+1:j*st+1+s.rows])
		}
	default:
		for j := range dst {
			dj := dst[j]
			for i := 0; i < s.rows; i++ {
				dj[i] = s.cur4[i*4+j]
			}
		}
	}
}

// matVecs returns the sparse product count of g completed iterations,
// matching the reference recursion's bookkeeping: order+1 products with
// the sweep matrix per iteration, plus one impulse product per (j, m)
// pair with 1 <= m <= j when impulses are present.
func (s *Sweep) matVecs(g int) int64 {
	perIter := int64(s.order + 1)
	if len(s.imp) > 0 {
		perIter += int64(s.order * (s.order + 1) / 2)
	}
	return perIter * int64(g)
}

// validateRun checks the per-run buffers against the prepared family.
func (s *Sweep) validateRun(cur, next [][]float64, plans []SweepPlan) error {
	n := s.rows
	if len(cur) != s.order+1 || len(next) != s.order+1 {
		return fmt.Errorf("%w: %d/%d sweep vectors for order %d", ErrDimensionMismatch, len(cur), len(next), s.order)
	}
	for j := 0; j <= s.order; j++ {
		if len(cur[j]) != n || len(next[j]) != n {
			return fmt.Errorf("%w: sweep vector %d has %d/%d entries for %d rows", ErrDimensionMismatch, j, len(cur[j]), len(next[j]), n)
		}
	}
	for pi := range plans {
		p := &plans[pi]
		if p.Last < p.First {
			continue // inert plan (e.g. t = 0)
		}
		if p.First < 0 || p.Last >= len(p.Weight) {
			return fmt.Errorf("%w: plan %d window [%d,%d] outside %d weights", ErrDimensionMismatch, pi, p.First, p.Last, len(p.Weight))
		}
		if len(p.Acc) != s.order+1 {
			return fmt.Errorf("%w: plan %d has %d accumulators for order %d", ErrDimensionMismatch, pi, len(p.Acc), s.order)
		}
		for j := range p.Acc {
			if len(p.Acc[j]) != n {
				return fmt.Errorf("%w: plan %d accumulator %d has %d entries for %d rows", ErrDimensionMismatch, pi, j, len(p.Acc[j]), n)
			}
		}
	}
	return nil
}

// gatherActive appends the accumulation targets of iteration k to buf:
// plans whose window contains k with a non-zero weight.
func gatherActive(plans []SweepPlan, k int, buf []accPair) []accPair {
	for pi := range plans {
		p := &plans[pi]
		if k < p.First || k > p.Last {
			continue
		}
		if w := p.Weight[k]; w != 0 {
			buf = append(buf, accPair{w: w, acc: p.Acc})
		}
	}
	return buf
}

// Run executes gMax fused iterations, polling ctx every cancelStride
// iterations, and returns the number of sparse products performed. The
// initial state is cur; accumulations land in the plans' Acc buffers.
// cur and next are scratch the sweep alternates between — their contents
// after Run are unspecified.
//
// With a team size of 1 the fused kernel runs inline (no goroutines);
// larger teams run the persistent workers described in the file comment.
func (s *Sweep) Run(ctx context.Context, gMax int, cur, next [][]float64, plans []SweepPlan, cancelStride int) (int64, error) {
	return s.RunFrom(ctx, 1, gMax, cur, next, plans, cancelStride)
}

// RunFrom is Run starting at iteration first instead of 1: cur must hold
// the moment-state vectors U^(j)(first-1) — for first == 1 the caller's
// initial state, for larger first a state exported by an InterruptHook —
// and the plans' Acc buffers must already carry every accumulation of
// iterations k < first. Because each iteration's floating-point work
// depends only on the incoming state and its own Poisson weights, a run
// resumed this way is bitwise identical to the uninterrupted sweep, for
// every storage format and worker count. A sweep built with the
// reference-only FormatCSR64 storage has no fused kernel and returns
// ErrUnsupportedFormat.
func (s *Sweep) RunFrom(ctx context.Context, first, gMax int, cur, next [][]float64, plans []SweepPlan, cancelStride int) (int64, error) {
	if s.format == FormatCSR64 {
		return 0, fmt.Errorf("%w: csr64 storage is streamed only by RunReference", ErrUnsupportedFormat)
	}
	if err := s.validateRun(cur, next, plans); err != nil {
		return 0, err
	}
	if first < 1 {
		return 0, fmt.Errorf("%w: resume iteration %d < 1", ErrDimensionMismatch, first)
	}
	if cancelStride <= 0 {
		cancelStride = 1
	}
	active := make([]accPair, 0, len(plans))

	// The order-3 impulse-free shape (the paper's large example) runs the
	// whole sweep on a dedicated state layout. The band format uses the
	// row-lane layout: plane j of cur4 is cur4[j*st : (j+1)*st] with st =
	// bandPlaneStride(rows), row i at cell 1+i and one zero padding cell
	// at each end, so a vector of four consecutive rows of one moment is
	// one contiguous load and the first and last rows need no boundary
	// clamping (out-of-matrix band cells multiply padding zeros, which is
	// bitwise neutral, see band.go). CSR32 and QBD use the interleaved
	// layout: cur4[i*4+j] holds moment j of state i, so all four values a
	// matrix entry gathers share one cache line. The planar cur/next stay
	// untouched scratch.
	words := s.Scratch4Words()
	order3 := words > 0
	s.kernel = s.resolveKernel(order3)
	if order3 {
		n := s.rows
		half := words / 2
		if len(s.scratch4) >= words {
			buf := s.scratch4[:words]
			s.cur4, s.next4 = buf[:half:half], buf[half:words:words]
		} else {
			buf := make([]float64, words)
			s.cur4, s.next4 = buf[:half:half], buf[half:]
		}
		if s.format == FormatBand {
			// Zero the padding cells (lent scratch arrives dirty); the row
			// cells are fully (re)written here and by every iteration, and
			// the kernels never read past cell n+1.
			st := s.band.stride
			for j := 0; j <= 3; j++ {
				c, x := s.cur4[j*st:j*st+n+2], s.next4[j*st:j*st+n+2]
				c[0], c[n+1], x[0], x[n+1] = 0, 0, 0, 0
				copy(c[1:n+1], cur[j])
			}
		} else {
			for j := 0; j <= 3; j++ {
				cj := cur[j]
				for i := 0; i < n; i++ {
					s.cur4[i*4+j] = cj[i]
				}
			}
		}
		defer func() { s.cur4, s.next4 = nil, nil }()
	} else {
		s.cur, s.next = cur, next
	}

	// Temporal blocking runs only the order-3 shape: the planar path
	// exists for rare shapes (impulses, orders other than 3), and its
	// per-term full-vector passes would defeat the cache-residency the
	// blocking buys.
	s.resolvedT = 1
	if order3 {
		if T, W, skew := s.resolveBlocking(); T > 1 {
			s.resolvedT = T
			return s.runBlocked(ctx, first, gMax, plans, active, T, W, skew)
		}
	}

	if s.workers <= 1 {
		for k := first; k <= gMax; k++ {
			if k%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					s.interrupted(k - 1)
					return 0, err
				}
			}
			s.active = gatherActive(plans, k, active[:0])
			s.step(0, s.rows)
			s.swap(order3)
		}
		return s.matVecs(gMax - first + 1), nil
	}

	// Persistent team: one start channel per worker forms the release
	// barrier, the shared done channel the join barrier. Workers exit when
	// their start channel closes; the defer runs only while every worker
	// is parked at its release barrier, so shutdown cannot race an
	// iteration in flight.
	start := make([]chan struct{}, s.workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
	}
	done := make(chan struct{}, s.workers)
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	for w := 0; w < s.workers; w++ {
		lo, hi := s.blocks[w], s.blocks[w+1]
		go func(startCh <-chan struct{}, lo, hi int) {
			for range startCh {
				s.step(lo, hi)
				done <- struct{}{}
			}
		}(start[w], lo, hi)
	}

	for k := first; k <= gMax; k++ {
		if k%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				// Every worker is parked at its release barrier here, so
				// the hook sees the consistent post-iteration-(k-1) state.
				s.interrupted(k - 1)
				return 0, err
			}
		}
		s.active = gatherActive(plans, k, active[:0])
		for _, ch := range start {
			ch <- struct{}{}
		}
		for w := 0; w < s.workers; w++ {
			<-done
		}
		s.swap(order3)
	}
	return s.matVecs(gMax - first + 1), nil
}

// interrupted invokes the interrupt hook, if any, with the completed
// iteration count and a state exporter.
func (s *Sweep) interrupted(completed int) {
	if s.onInterrupt != nil {
		s.onInterrupt(completed, s.exportState)
	}
}

// step runs one iteration's fused work over rows [lo, hi) against the
// published iteration state.
func (s *Sweep) step(lo, hi int) {
	if s.cur4 != nil {
		s.stepRange(lo, hi, s.cur4, s.next4, s.active)
		return
	}
	s.fuseBlock(lo, hi, s.cur, s.next, s.active)
}

// stepRange runs one order-3 iteration's fused work over rows
// [lo, hi) with explicit state buffers and accumulation targets,
// dispatching on the resolved storage format. The temporally blocked
// drivers call it directly so different inner iterations of a group can
// address alternating buffers and per-iteration Poisson targets without
// republishing the shared fields.
func (s *Sweep) stepRange(lo, hi int, cur4, next4 []float64, active []accPair) {
	switch s.format {
	case FormatBand:
		s.fuseBlock3Band(lo, hi, cur4, next4, active)
	case FormatCSR32:
		if s.simd && hi > lo && len(s.a.val) > 0 {
			s.fuseBlock3CompactAVX2(lo, hi, cur4, next4, active)
			return
		}
		s.fuseBlock3Compact(lo, hi, cur4, next4, active)
	case FormatQBD:
		if s.simd && hi > lo {
			s.fuseBlock3QBDAVX2(lo, hi, cur4, next4, active)
			return
		}
		s.fuseBlock3QBD(lo, hi, cur4, next4, active)
	}
}

// swap exchanges the published current/next state after an iteration.
func (s *Sweep) swap(order3 bool) {
	if order3 {
		s.cur4, s.next4 = s.next4, s.cur4
		return
	}
	s.cur, s.next = s.next, s.cur
}

// runBlocked executes the temporally blocked sweep. Iterations are
// processed in groups of up to T; within a group, each row block runs all
// of the group's inner iterations back to back while its rows (state,
// matrix values, diagonals, accumulators) are cache-resident, so every
// per-row array streams from DRAM once per group instead of once per
// iteration — a ~T× traffic cut for this memory-bound loop.
//
// The schedule is a time-skewed parallelogram. With block width W and
// skew s = max(lo, hi) of the dependency reach, block m at inner step t
// (1-based) computes rows
//
//	R(m, t) = [m·W − (t−1)·s, (m+1)·W − (t−1)·s) ∩ [0, n)
//
// of iteration k0+t. Sliding the window s rows left per step keeps the
// dependency cone satisfied: R(m, t) needs rows R(m, t)±reach of step
// t−1, all of which lie in blocks ≤ m at step t−1. The two order-3
// state buffers alternate per inner step (odd steps read cur4 and write
// next4, even steps the reverse), and each step's Poisson accumulations
// are applied inside the kernel at its own iteration's weights, so the
// per-element operation sequence — and therefore every bit of the result
// — is identical to the unblocked sweep: blocking only reorders work
// between different (row, iteration) pairs.
//
// Context cancellation is observed at group boundaries only, where the
// state is a consistent iteration snapshot (checkpoint barriers land
// there); resume tokens from unblocked runs remain valid because groups
// are re-based at `first`. The serial schedule resolves each step's
// accumulation targets into active as it goes, so it allocates nothing
// beyond the unblocked sweep; the wavefront gathers a group's targets
// up front for its workers.
func (s *Sweep) runBlocked(ctx context.Context, first, gMax int, plans []SweepPlan, active []accPair, T, W, skew int) (int64, error) {
	var activeT [][]accPair
	var start []chan struct{}
	var done chan struct{}
	if s.workers > 1 {
		activeT = make([][]accPair, T+1)
		g := &wavefrontGroup{W: W, skew: skew}
		g.cond = sync.NewCond(&g.mu)
		s.wf = g
		start = make([]chan struct{}, s.workers)
		for w := range start {
			start[w] = make(chan struct{}, 1)
		}
		done = make(chan struct{}, s.workers)
		defer func() {
			for _, ch := range start {
				close(ch)
			}
			s.wf = nil
		}()
		for w := 0; w < s.workers; w++ {
			// done is passed by value: a captured variable would move to
			// the heap on the serial path too.
			go func(startCh <-chan struct{}, done chan<- struct{}, w int) {
				for range startCh {
					s.wavefrontWorker(w)
					done <- struct{}{}
				}
			}(start[w], done, w)
		}
	}
	for k0 := first - 1; k0 < gMax; {
		if err := ctx.Err(); err != nil {
			// Group boundary: iteration k0 fully complete, k0+1 not started.
			s.interrupted(k0)
			return 0, err
		}
		Tg := T
		if rem := gMax - k0; Tg > rem {
			Tg = rem // ragged final group when T does not divide the span
		}
		// Enough blocks that the final inner step — shifted (Tg−1)·skew rows
		// left — still covers the top of the matrix.
		blocks := (s.rows + (Tg-1)*skew + W - 1) / W
		if s.workers > 1 {
			for t := 1; t <= Tg; t++ {
				activeT[t] = gatherActive(plans, k0+t, activeT[t][:0])
			}
			g := s.wf
			g.T, g.blocks, g.activeT = Tg, blocks, activeT
			if cap(g.progress) < blocks {
				g.progress = make([]int, blocks)
			}
			g.progress = g.progress[:blocks]
			clear(g.progress)
			for _, ch := range start {
				ch <- struct{}{}
			}
			for w := 0; w < s.workers; w++ {
				<-done
			}
		} else {
			// Serial: depth-first per block — all Tg steps of block m before
			// block m+1 touches memory. Correct because R(m, t)'s dependency
			// cone at step t−1 ends at (m+1)·W − (t−2)·s + hi − s ≤ block m's
			// own step-(t−1) upper edge, already computed.
			for m := 0; m < blocks; m++ {
				cur4, next4 := s.cur4, s.next4
				for t := 1; t <= Tg; t++ {
					l := m*W - (t-1)*skew
					r := l + W
					if l < 0 {
						l = 0
					}
					if r > s.rows {
						r = s.rows
					}
					if l < r {
						active = gatherActive(plans, k0+t, active[:0])
						s.stepRange(l, r, cur4, next4, active)
					}
					cur4, next4 = next4, cur4
				}
			}
		}
		if Tg%2 == 1 {
			// Odd group depth leaves the newest state in next4; swap so the
			// group-boundary invariant (cur4 = iteration k0) holds for
			// exportState and the next group.
			s.swap(true)
		}
		k0 += Tg
	}
	return s.matVecs(gMax - first + 1), nil
}

// wavefrontGroup is the shared state of one temporally blocked group
// executed by the worker team: the group shape, the per-inner-step
// accumulation targets, and the progress vector the wavefront
// synchronizes on (progress[m] = last inner step block m completed).
// The mutex/condvar pair both orders the data accesses (a block's writes
// happen before any dependent's reads) and keeps the schedule race-free
// under the race detector.
type wavefrontGroup struct {
	T, W, skew, blocks int
	activeT            [][]accPair
	mu                 sync.Mutex
	cond               *sync.Cond
	progress           []int
}

// wavefrontWorker runs worker w's share of the current group: blocks
// m ≡ w (mod workers), block-cyclic so the wavefront stays dense, each
// depth-first through the group's inner steps. Block m at step t waits
// only for progress[m−1] ≥ t−1; with W ≥ 2·skew (enforced by
// resolveBlocking) that single constraint makes every concurrently
// running (block, step) pair touch disjoint rows of each buffer — the
// binding cases are a block two ahead on the same buffer parity, which
// W ≥ skew+hi separates, and the lagging mirror, separated by
// W ≥ skew+lo. Deadlock-free: the lowest unfinished block's predecessor
// is complete, so its owner always progresses; empty clipped ranges
// still bump progress so successors never stall on them.
func (s *Sweep) wavefrontWorker(w int) {
	g := s.wf
	for m := w; m < g.blocks; m += s.workers {
		cur4, next4 := s.cur4, s.next4
		for t := 1; t <= g.T; t++ {
			if m > 0 && t > 1 {
				g.mu.Lock()
				for g.progress[m-1] < t-1 {
					g.cond.Wait()
				}
				g.mu.Unlock()
			}
			l := m*g.W - (t-1)*g.skew
			r := l + g.W
			if l < 0 {
				l = 0
			}
			if r > s.rows {
				r = s.rows
			}
			if l < r {
				s.stepRange(l, r, cur4, next4, g.activeT[t])
			}
			g.mu.Lock()
			g.progress[m] = t
			g.mu.Unlock()
			g.cond.Broadcast()
			cur4, next4 = next4, cur4
		}
	}
}

// fuseBlock runs one fused iteration over rows [lo, hi), tiled: for each
// row tile it computes every moment order's recursion term and immediately
// applies the active Poisson accumulations while the tile is hot in cache.
// The inner loops are the same shape as CSR.MatVec (hoisted slice headers,
// streaming index ranges); the tiling only reorders work across rows, so
// the floating-point operation sequence per element is identical to
// RunReference's — the fused kernel is bitwise exact by construction.
//
// Relative to the reference sweep, one iteration here streams the matrix
// and the vectors from memory once instead of once per term: the CSR rows
// of a tile are reused across the order+1 products, and each next-vector
// tile is produced, corrected and accumulated before it is evicted.
func (s *Sweep) fuseBlock(lo, hi int, cur, next [][]float64, active []accPair) {
	for t0 := lo; t0 < hi; t0 += s.tile {
		t1 := t0 + s.tile
		if t1 > hi {
			t1 = hi
		}
		for j := s.order; j >= 0; j-- {
			curj, nextj := cur[j], next[j]
			s.productTile(t0, t1, curj, nextj)
			if j >= 1 {
				d1, c1 := s.diag1, cur[j-1]
				for i := t0; i < t1; i++ {
					nextj[i] += d1[i] * c1[i]
				}
			}
			if j >= 2 {
				d2, c2 := s.diag2, cur[j-2]
				for i := t0; i < t1; i++ {
					nextj[i] += d2[i] * c2[i]
				}
			}
			for m := 1; m <= j && m <= len(s.imp); m++ {
				im := s.imp[m-1]
				irp, icx, ivl := im.rowPtr, im.colIdx, im.val
				cf, cm := s.coef[m], cur[j-m]
				for i := t0; i < t1; i++ {
					var impSum float64
					for p := irp[i]; p < irp[i+1]; p++ {
						impSum += ivl[p] * cm[icx[p]]
					}
					nextj[i] += cf * impSum
				}
			}
		}
		for _, ap := range active {
			w := ap.w
			for j := 0; j <= s.order; j++ {
				nj, aj := next[j], ap.acc[j]
				for i := t0; i < t1; i++ {
					aj[i] += w * nj[i]
				}
			}
		}
	}
}

// productTile computes y[i] = (A·x)[i] for rows [t0, t1) with the resolved
// storage format. Every arm accumulates the row's in-matrix entries in
// ascending column order into a sum started at +0.0, so the arms are
// bitwise interchangeable with the reference CSR product: the compact arm
// loads the identical values through narrower indexes, and the window
// arms' extra zero cells contribute bitwise-neutral 0.0·x products (see
// band.go).
func (s *Sweep) productTile(t0, t1 int, x, y []float64) {
	switch s.format {
	case FormatQBD:
		s.qbd.matVecRange(t0, t1, x, y)
	case FormatBand:
		s.band.matVecRange(t0, t1, x, y)
	case FormatCSR32:
		rowPtr, col32, val := s.a.rowPtr, s.col32, s.a.val
		for i := t0; i < t1; i++ {
			var sum float64
			for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
				sum += val[p] * x[col32[p]]
			}
			y[i] = sum
		}
	}
}

// fuseBlock3Compact is the register-resident specialization of the fused
// kernel for the hot shape: moment order 3 (the paper's large example)
// without impulse matrices. It operates on the interleaved state layout
// set up by Run — cur4[i*4+j] is moment j of state i — so each matrix
// entry's four gathered values share one cache line and cost a single
// bounds check.
// Each row's four recursion sums live in registers across a single walk
// of the row's entries — the matrix streams once per iteration instead of
// order+1 times — and the diagonal corrections and Poisson accumulations
// are applied before the sums are ever reloaded from memory.
//
// Bitwise contract: every output element sees the identical operation
// sequence as RunReference — per sum, the row products in entry order,
// then the diag1 term, then the diag2 term; each accumulation multiplies
// the same stored value. Only work belonging to *different* elements is
// interleaved, which float64 cannot observe.
//
// Each gather address comes from a uint32 column load — half the index
// traffic of the generic CSR in a loop that is memory-bandwidth-bound at
// the paper's sizes.
func (s *Sweep) fuseBlock3Compact(lo, hi int, cur4, next4 []float64, active []accPair) {
	rowPtr, val := s.a.rowPtr, s.a.val
	col32 := s.col32
	d1, d2 := s.diag1, s.diag2
	var w float64
	var a0, a1, a2, a3 []float64
	if len(active) == 1 {
		w = active[0].w
		a0, a1, a2, a3 = active[0].acc[0], active[0].acc[1], active[0].acc[2], active[0].acc[3]
	}
	for i := lo; i < hi; i++ {
		rv := val[rowPtr[i]:rowPtr[i+1]]
		rc := col32[rowPtr[i]:rowPtr[i+1]]
		rc = rc[:len(rv)] // bounds-check elimination for rc[p]
		var s0, s1, s2, s3 float64
		for p, v := range rv {
			c4 := int(rc[p]) * 4
			cv := cur4[c4 : c4+4 : c4+4]
			s3 += v * cv[3]
			s2 += v * cv[2]
			s1 += v * cv[1]
			s0 += v * cv[0]
		}
		civ := cur4[i*4 : i*4+4 : i*4+4]
		d1i, d2i := d1[i], d2[i]
		s3 += d1i * civ[2]
		s3 += d2i * civ[1]
		s2 += d1i * civ[1]
		s2 += d2i * civ[0]
		s1 += d1i * civ[0]
		nv := next4[i*4 : i*4+4 : i*4+4]
		nv[0], nv[1], nv[2], nv[3] = s0, s1, s2, s3
		switch {
		case a0 != nil:
			a0[i] += w * s0
			a1[i] += w * s1
			a2[i] += w * s2
			a3[i] += w * s3
		case len(active) > 1:
			for _, ap := range active {
				wp := ap.w
				ap.acc[0][i] += wp * s0
				ap.acc[1][i] += wp * s1
				ap.acc[2][i] += wp * s2
				ap.acc[3][i] += wp * s3
			}
		}
	}
}

// fuseBlock3Band is the order-3 band kernel on the row-lane layout Run
// sets up: moment j of row i lives at cell 1+i of state plane j, and the
// band's sub-diagonal, diagonal and super-diagonal are planes too, so
// every operand of four consecutive rows of one moment is one contiguous
// load — zero index loads, zero gathers, no lane shuffles. The padding
// cell at each plane end absorbs the out-of-matrix cells of the first
// and last row, so the loop has no boundary branches; padded cells'
// 0.0·x products are bitwise neutral (see band.go), leaving every output
// element with exactly the reference operation sequence.
//
// On AVX2 hardware the whole groups of four rows in [lo, hi) run the
// assembly body (band_simd_amd64.s), whose lanes execute bandRows' exact
// operation sequence with the same IEEE rounding; bandRows itself takes
// the (hi-lo) mod 4 tail rows and, without AVX2, the whole range. One
// plan's accumulation is fused into the kernel as vector adds straight
// into the caller's planar accumulators; with several plans the kernel
// runs unaccumulated per tile, followed by one vector accumulation pass
// per plan (the split is bitwise neutral: each a_j[i] += w*s_j reads
// back the stored s_j bit-exactly, and only work between different
// (plan, element) pairs is reordered).
func (s *Sweep) fuseBlock3Band(lo, hi int, cur4, next4 []float64, active []accPair) {
	if !s.simd || hi-lo < 4 {
		s.bandRows(lo, hi, cur4, next4, active)
		return
	}
	st, bval := s.band.stride, s.band.val
	d1, d2 := s.diag1, s.diag2
	vhi := lo + (hi-lo)&^3
	switch len(active) {
	case 0:
		bandLanesAVX2(vhi-lo, &bval[lo], &cur4[1+lo], &next4[1+lo], st, &d1[lo], &d2[lo])
	case 1:
		w, acc := active[0].w, active[0].acc
		bandLanesAccAVX2(vhi-lo, &bval[lo], &cur4[1+lo], &next4[1+lo], st, &d1[lo], &d2[lo],
			&acc[0][lo], &acc[1][lo], &acc[2][lo], &acc[3][lo], w)
	default:
		tile := max(s.tile&^3, 4)
		for t0 := lo; t0 < vhi; t0 += tile {
			t1 := min(t0+tile, vhi)
			bandLanesAVX2(t1-t0, &bval[t0], &cur4[1+t0], &next4[1+t0], st, &d1[t0], &d2[t0])
			for _, ap := range active {
				acc := ap.acc
				planeAcc4AVX2(t1-t0, &next4[1+t0], st, &acc[0][t0], &acc[1][t0], &acc[2][t0], &acc[3][t0], ap.w)
			}
		}
	}
	s.bandRows(vhi, hi, cur4, next4, active)
}

// bandRows is the scalar body of fuseBlock3Band for rows [lo, hi): per
// moment, the three band products in column order from a +0 sum, then
// the d1 and d2 order-coupling terms — RunReference's sequence — and the
// active accumulations. Every operand is re-sliced to the range first
// (plane cells lo..hi+1 hold rows lo-1..hi), so the loop runs free of
// bounds checks.
func (s *Sweep) bandRows(lo, hi int, cur4, next4 []float64, active []accPair) {
	if lo >= hi {
		return
	}
	st := s.band.stride
	sub, dg, sup := s.band.planes()
	sub = sub[lo:hi]
	m := len(sub)
	dg, sup = dg[lo:hi][:m], sup[lo:hi][:m]
	d1, d2 := s.diag1[lo:hi][:m], s.diag2[lo:hi][:m]
	plane := func(buf []float64, j int) []float64 { return buf[j*st+lo : j*st+hi+2][:m+2] }
	c0, c1, c2, c3 := plane(cur4, 0), plane(cur4, 1), plane(cur4, 2), plane(cur4, 3)
	n0, n1, n2, n3 := plane(next4, 0), plane(next4, 1), plane(next4, 2), plane(next4, 3)
	var w float64
	var a0, a1, a2, a3 []float64
	if len(active) == 1 {
		w = active[0].w
		acc := active[0].acc
		a0, a1, a2, a3 = acc[0][lo:hi][:m], acc[1][lo:hi][:m], acc[2][lo:hi][:m], acc[3][lo:hi][:m]
	}
	for k, l := range sub {
		d, u := dg[k], sup[k]
		d1k, d2k := d1[k], d2[k]
		x0, x1, x2 := c0[k+1], c1[k+1], c2[k+1]
		var s0, s1, s2, s3 float64
		s0 += l * c0[k]
		s0 += d * x0
		s0 += u * c0[k+2]
		s1 += l * c1[k]
		s1 += d * x1
		s1 += u * c1[k+2]
		s1 += d1k * x0
		s2 += l * c2[k]
		s2 += d * x2
		s2 += u * c2[k+2]
		s2 += d1k * x1
		s2 += d2k * x0
		s3 += l * c3[k]
		s3 += d * c3[k+1]
		s3 += u * c3[k+2]
		s3 += d1k * x2
		s3 += d2k * x1
		n0[k+1], n1[k+1], n2[k+1], n3[k+1] = s0, s1, s2, s3
		switch {
		case a0 != nil:
			a0[k] += w * s0
			a1[k] += w * s1
			a2[k] += w * s2
			a3[k] += w * s3
		case len(active) > 1:
			for _, ap := range active {
				wp, i := ap.w, lo+k
				ap.acc[0][i] += wp * s0
				ap.acc[1][i] += wp * s1
				ap.acc[2][i] += wp * s2
				ap.acc[3][i] += wp * s3
			}
		}
	}
}

// RunReference executes the sweep with the serial reference kernel: one
// full-vector pass per term, exactly the operation structure of the
// original solver loop. It is the oracle the fused kernel is tested
// against, not a production path: automatic worker selection runs the
// fused kernel at every size, and only an explicit negative worker
// request (see PlanWorkers) reaches this loop.
func (s *Sweep) RunReference(ctx context.Context, gMax int, cur, next [][]float64, plans []SweepPlan, cancelStride int) (int64, error) {
	return s.RunReferenceFrom(ctx, 1, gMax, cur, next, plans, cancelStride)
}

// RunReferenceFrom is RunReference starting at iteration first, with the
// same resume contract as RunFrom: cur holds U^(j)(first-1) and the Acc
// buffers carry all accumulations of iterations below first.
func (s *Sweep) RunReferenceFrom(ctx context.Context, first, gMax int, cur, next [][]float64, plans []SweepPlan, cancelStride int) (int64, error) {
	if err := s.validateRun(cur, next, plans); err != nil {
		return 0, err
	}
	if first < 1 {
		return 0, fmt.Errorf("%w: resume iteration %d < 1", ErrDimensionMismatch, first)
	}
	if cancelStride <= 0 {
		cancelStride = 1
	}
	s.kernel = KernelScalar // the reference loops never dispatch assembly
	n := s.rows
	for k := first; k <= gMax; k++ {
		if k%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				if s.onInterrupt != nil {
					// The reference sweep alternates local slices, so export
					// from the loop's own current state rather than the
					// fused path's published fields.
					s.onInterrupt(k-1, func(dst [][]float64) {
						for j := range dst {
							copy(dst[j], cur[j])
						}
					})
				}
				return 0, err
			}
		}
		for j := s.order; j >= 0; j-- {
			if err := s.a.MatVec(cur[j], next[j]); err != nil {
				return 0, err
			}
			if j >= 1 {
				for i := 0; i < n; i++ {
					next[j][i] += s.diag1[i] * cur[j-1][i]
				}
			}
			if j >= 2 {
				for i := 0; i < n; i++ {
					next[j][i] += s.diag2[i] * cur[j-2][i]
				}
			}
			if len(s.imp) > 0 {
				for m := 1; m <= j; m++ {
					if err := s.imp[m-1].MatVecAdd(s.coef[m], cur[j-m], next[j]); err != nil {
						return 0, err
					}
				}
			}
		}
		cur, next = next, cur
		for pi := range plans {
			p := &plans[pi]
			if k < p.First || k > p.Last {
				continue
			}
			w := p.Weight[k]
			if w == 0 {
				continue
			}
			for j := 0; j <= s.order; j++ {
				cj := cur[j]
				aj := p.Acc[j]
				for i := 0; i < n; i++ {
					aj[i] += w * cj[i]
				}
			}
		}
	}
	return s.matVecs(gMax - first + 1), nil
}
