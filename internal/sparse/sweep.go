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
// Every fused run executes one schedule, the split-tiled group schedule
// of runBlocked, on packed moment state the sweep owns (see stateLayout).
// Iterations run in groups of T; a team of workers splits the rows once
// per run into contiguous segments, balanced by non-zero count rather than
// row count, and joins once per group. T = 1 (an unblocked run) is a group
// of one inner step per segment with no seams; one worker is one segment,
// run inline with no goroutines and no join.
//
// Per element, the fused kernel performs exactly the same floating-point
// operations in exactly the same order as the serial reference sweep
// (referenceStep, a sweep built for zero workers), so the two agree bit
// for bit for every worker count and every group depth. The fused kernel
// is the production path at every model size; the reference sweep is
// only the oracle the regression and differential tests compare against.

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
	// Acc accumulates Σ_k Weight[k]·U^(j)(k) for j = 0..order in the
	// sweep's packed state layout: AccWords() words, written with PackAcc
	// and read with UnpackAcc.
	Acc []float64
}

// accPair is one resolved accumulation target for the current iteration:
// weight w and the plan's packed accumulator block acc.
type accPair struct {
	w   float64
	acc []float64
}

// Sweep is a prepared randomization sweep over a fixed matrix family:
// the uniformized generator a, the diagonal first- and second-order
// reward terms, and optional impulse matrices imp[m-1] applied with
// coefficient 1/m!. Build one per solve with NewSweepWithFormat — for a
// fused team (the production path) or for the serial reference oracle —
// then execute it with RunFrom.
type Sweep struct {
	a            *CSR
	rows         int
	diag1, diag2 []float64
	imp          []*CSR
	coef         []float64 // coef[m] = 1/m!, the impulse term coefficients
	order        int
	workers      int   // team size; 0 for the serial reference sweep
	blocks       []int // blocks[w]..blocks[w+1] is worker w's row range

	// Tuning knobs (see SetSweepTile / SetTemporalBlock): tile is the
	// spatial row-tile width of the fused kernels and the block width of
	// the temporally blocked driver; tblock is the requested temporal
	// block depth (0 auto, 1 off, >= 2 forced); resolvedT records the
	// depth the last Run actually used (1 when it ran unblocked).
	tile      int
	tblock    int
	resolvedT int

	// SIMD dispatch (see simd.go): simd is the gate resolved at
	// construction (hardware support minus the SOMRM_NOSIMD
	// kill-switch), kernel the label of the last run's dispatch.
	simd   bool
	kernel string

	// Resolved storage (see MatrixFormat): the fused kernels stream the
	// tridiagonal band planes or compact uint32 column indexes, cutting
	// the memory traffic of this bandwidth-bound loop. lanes is P, the
	// words per state of the CSR32 layout (see seedState), and accWords
	// the size of one packed buffer (see AccWords). All formats are
	// bitwise identical.
	format   MatrixFormat
	band     *Band    // set when format == FormatBand
	col32    []uint32 // set when format == FormatCSR32
	lanes    int
	accWords int

	// scratch is optional caller-lent backing for pcur/pnext (see
	// SetScratch), letting pooled solves skip the two largest per-run
	// allocations.
	scratch []float64

	// onInterrupt, when set, is invoked at the iteration barrier where a
	// context cancellation is observed, before Run returns the context's
	// error (see SetInterruptHook). It is the seam checkpointable solves
	// hang their snapshot capture on.
	onInterrupt InterruptHook
	// onBarrier, when set, is invoked once at the barrier after iteration
	// barrierAt (see SetBarrierHook).
	onBarrier InterruptHook
	barrierAt int

	// pcur/pnext are the packed moment-state buffers of a run (see
	// seedState) while RunFrom executes. pcur holds iteration k0 at every
	// group boundary; the task channels of the split team order the
	// driver's writes before the workers' reads.
	pcur, pnext []float64
}

// parallelThreshold is the row count at which automatic worker selection
// moves from the inline 1-worker fused sweep to a GOMAXPROCS team. A
// team joins once per group of T iterations (see runBlocked), and each
// join wakes a parked worker; below a few thousand rows a group's
// work is too short to hide that. On a 2-core Xeon a 2-worker team takes
// a median 0.95× the inline sweep's time at 4,095 tridiagonal rows
// (0.83–1.15× over ten benchmark runs), 0.78× at 8,191 (0.65–0.91×)
// and 0.74× at 16,383 (0.58–0.89×, seven runs), against 1.08–1.21×
// at 2,001 (BenchmarkSweep/N*/{fused-1,workers-2} in internal/core), so
// the threshold sits at the smallest of those sizes where the team wins
// by more than 10%. Callers that know better force a team size
// explicitly.
const parallelThreshold = 8_191

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
// The returned count is 0 for the reference sweep and >= 1 for a fused
// team of that size; NewSweepWithFormat takes either. Every choice yields
// bitwise identical results.
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

// NewSweepWithFormat validates the matrix family and partitions the rows
// for a fused team of the given size, or builds the serial reference
// sweep when workers < 1 (PlanWorkers returns 0 for it). diag2 must
// already carry any constant factor (the solver passes ½·S'). imp may be
// empty; when present it must hold at least order matrices (imp[m-1]
// multiplies cur[j-m] for every m <= j). format selects the sweep
// matrix's storage (see MatrixFormat); a sweep with impulse matrices, and
// the reference sweep, resolve to compact CSR, and the impulse matrices
// stay generic CSR. Every format yields bitwise identical results; Format
// reports the resolved choice.
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
		workers, format = 0, FormatCSR // the reference streams the compact CSR
	}
	workers = min(workers, max(a.rows, 1))
	resolved, words, band, col32, err := resolveStorage(a, format, order, len(imp) > 0)
	if err != nil {
		return nil, err
	}
	if workers == 0 {
		words = (order + 1) * a.rows // the reference runs on plain planes
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
		lanes:     packedLanes(order),
		accWords:  words,
		simd:      hasAVX2 && !simdEnvDisabled(),
		tile:      sweepTileDefault,
		resolvedT: 1,
	}
	if resolved == FormatBand {
		s.tile = bandTile(order)
	}
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

// Format returns the resolved storage format: FormatBand or
// FormatCSR32 (always FormatCSR32 for the reference sweep).
func (s *Sweep) Format() MatrixFormat { return s.format }

// reference reports whether the sweep runs the serial reference oracle.
func (s *Sweep) reference() bool { return s.workers == 0 }

// AccWords returns the float64 count of one packed buffer of the run's
// layout (see planes): one plan's accumulator block (SweepPlan.Acc), or
// one set of moment-state vectors, padding included.
func (s *Sweep) AccWords() int { return s.accWords }

// ScratchWords returns the float64 count RunFrom uses for its two packed
// moment-state buffers.
func (s *Sweep) ScratchWords() int { return 2 * s.AccWords() }

// SetScratch lends RunFrom a scratch buffer of at least ScratchWords()
// float64s for its packed state (contents need not be zeroed),
// eliminating the two largest per-run allocations; pooled solves use it.
// A short (or nil) buffer is ignored and RunFrom allocates as before. The
// buffer is used only while RunFrom executes and may be reused afterwards.
func (s *Sweep) SetScratch(buf []float64) { s.scratch = buf }

// SetSweepTile overrides the row-tile width of the fused kernels — the
// rows each tight vector pass covers before the next term's pass — and
// with it the block width of the temporally blocked driver, so spatial
// and temporal tile shapes are tunable together. Values below 1 keep the
// default (bandTile(order) for a band sweep, sweepTileDefault
// otherwise). The tile only reorders work across rows; every width is
// bitwise identical.
func (s *Sweep) SetSweepTile(w int) {
	if w > 0 {
		s.tile = w
	}
}

// SetTemporalBlock requests temporal blocking for RunFrom: t
// consecutive sweep iterations are executed over each cache-resident row
// block before the next block is touched (see runBlocked). 0 (the
// default) tunes the depth automatically from the matrix bandwidth and
// the state footprint; 1 or negative disables blocking; larger values
// force that depth (capped at maxTemporalBlock) wherever blocking is
// structurally possible. Every setting is bitwise identical to the
// unblocked sweep; TemporalBlock reports what the last run resolved.
func (s *Sweep) SetTemporalBlock(t int) {
	if t > maxTemporalBlock {
		t = maxTemporalBlock
	}
	s.tblock = t
}

// TemporalBlock returns the temporal blocking depth the last run
// resolved: 1 for an unblocked run (including every reference run), the
// group depth T otherwise.
func (s *Sweep) TemporalBlock() int { return s.resolvedT }

// Temporal blocking constants.
const (
	// sweepTileDefault is the default row-tile width (see SetSweepTile),
	// and so the temporal block width, of a CSR32 sweep: a tile's next
	// rows must stay cache-resident until its accumulation pass, 32 KiB
	// per group of four moments. 1024-row blocks of the order-12
	// pentadiagonal shape ran as fast as 256- or 512-row ones.
	sweepTileDefault = 1024
	// bandL1Tile is the default tile, and so the temporal block width, of
	// an order-3 band sweep at every team size: a 128-row block's slices
	// of the 17 row-lane planes it touches (3 band, 2 diagonals, 4 cur,
	// 4 next, 4 acc) come to 17 KiB and stay in L1 across a group's T
	// inner steps, where a 1024-row block ran from L2. Higher orders
	// touch more planes and take narrower blocks (see bandTile).
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
	// the automatic policy leaves CSR32 sweeps unblocked: a state set
	// this small (2 MiB for both buffers) is already L2-resident, and the
	// gathering kernel gains nothing from re-running iterations over L2
	// blocks. The band format does not consult it: its row-lane blocks
	// are sized for L1 and pay from two blocks up (see resolveBlocking).
	temporalBlockMinWords = 1 << 18
	// csrAutoBlockMaxSkew bounds the matrix bandwidth up to which the
	// automatic policy temporally blocks the vectorized CSR32 kernel.
	// Depth 16 cut the unblocked time by 31% at skew 1 (N=100,001
	// tridiagonal chain) and by 34% at skew 23 (the BenchmarkSweep
	// dense-block shape of 12-state levels, 578 → 384 ms/op), and broke
	// even at skew 4 (shape-composed-bd4); 31 is the reach of
	// block-tridiagonal levels of 16 states (2·16−1). Beyond it the
	// policy has no measurement and stays unblocked.
	csrAutoBlockMaxSkew = 31
)

// bandTile returns the default block width of a row-lane band sweep at
// the given moment order: bandL1Tile rows up to order 3, and above it as
// many rows as keep the block's 3(order+1)+5 planes within the order-3
// block's 17-plane footprint, in whole 4-row groups — 48 rows at order
// 12, where 128-row blocks (44 KiB) measured 20-30% slower than 48- or
// 64-row ones (N = 2,001 and 100,001, one worker).
func bandTile(order int) int {
	return min(bandL1Tile, bandL1Tile*17/(3*(order+1)+5)&^3)
}

// blockReach returns the dependency reach of the resolved storage: row i
// of the next iteration depends on rows i-lo..i+hi of the current one,
// through the sweep matrix or an impulse matrix.
func (s *Sweep) blockReach() (lo, hi int) {
	if s.format == FormatBand {
		// The window kernel reads both neighbours of every row, padded
		// cells included, so its reach is 1 even for a diagonal matrix.
		return 1, 1
	}
	lo, hi = s.a.Bandwidth()
	for _, im := range s.imp {
		l, h := im.Bandwidth()
		lo, hi = max(lo, l), max(hi, h)
	}
	return lo, hi
}

// resolveBlocking turns the requested temporal block depth into the
// (T, W, skew) the blocked sweep runs: T inner iterations per group over
// blocks of W rows, each inner step's row window sliding skew rows to the
// left (the split-tiled schedule of runBlocked). T == 1 means the run
// stays unblocked, as the reference sweep always does. The schedule is
// exact at every block width, so W is the tile as set.
func (s *Sweep) resolveBlocking() (T, W, skew int) {
	T, W = 1, s.tile
	if s.tblock < 0 || s.tblock == 1 || s.reference() {
		return
	}
	lo, hi := s.blockReach()
	skew = max(lo, hi)
	if s.tblock == 0 {
		if s.format == FormatBand {
			// The row-lane band kernel is bound by the cache level its
			// state streams from, so blocking pays at every size that
			// holds two blocks: every team size runs L1-sized bandTile
			// blocks (the state otherwise streams from L2 even at 2,001
			// rows).
			if s.rows < 2*W {
				return 1, W, skew
			}
		} else if s.ScratchWords() < temporalBlockMinWords || s.resolveKernel() != KernelAVX2 || skew > csrAutoBlockMaxSkew {
			// CSR32, the only other storage, stays unblocked while its
			// state is cache-resident (blocking cannot pay) and on the
			// scalar kernel (impulse sweeps included), where the
			// index-chasing row loop, not DRAM bandwidth, is the
			// bottleneck (the blocking bookkeeping cost ~12-29%
			// measured). The AVX2 kernel retires the whole gather in one
			// load and is memory-bound like the band kernel, so it
			// auto-blocks, but only while the bandwidth-derived skew is
			// in the regime the measurements covered (wider reaches
			// shrink the depth until blocking is all halo). Forced depths
			// still block every CSR shape for the difftest gates and
			// benchmark ablations.
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
// into dst — order+1 vectors of Rows() entries each — out of the packed
// layout of the run. A sweep resumed from that state with
// RunFrom(ctx, completed+1, ...) is bitwise identical to the
// uninterrupted run.
type InterruptHook func(completed int, export func(dst [][]float64))

// SetInterruptHook installs the hook RunFrom invokes when a context
// cancellation is observed mid-sweep (nil disables). The hook runs on the
// driver goroutine while every worker waits for its next task, so it may
// read any sweep state, the plans' accumulators included, without
// synchronization.
func (s *Sweep) SetInterruptHook(h InterruptHook) { s.onInterrupt = h }

// SetBarrierHook asks RunFrom to invoke h at the barrier after iteration
// k, with the same arguments and guarantees as an InterruptHook: the
// fused schedule ends a group there (a forced group boundary; every group
// depth is bitwise neutral), so h can export U^(j)(k) and the run
// continues. It fires only when the run starts below k and ends above it;
// nil disables. A blocked run also polls for cancellation at that
// boundary, as at every group boundary. Solvers hang their state
// snapshots on it.
func (s *Sweep) SetBarrierHook(k int, h InterruptHook) { s.barrierAt, s.onBarrier = k, h }

// planes returns the plane stride and the first row's cell of a planar
// packed layout, or (0, 0) for the interleaved one. Every buffer of a run
// — both state buffers and each plan's accumulator block — has the same
// layout:
//
//   - Row-lane planes (every band sweep) hold row i of moment j at cell
//     1+i of plane j = buf[j*st : (j+1)*st], st = bandPlaneStride(rows),
//     with one zero padding cell at each end, so a vector of four
//     consecutive rows of one moment is one contiguous load and the first
//     and last rows need no boundary clamping (out-of-matrix band cells
//     multiply padding zeros, which is bitwise neutral, see band.go).
//   - The reference sweep's plain planes hold row i of moment j at
//     buf[j*rows+i].
//   - The interleaved layout (every fused CSR32 sweep) holds moment j of
//     state i at buf[i*P+j], P = lanes = order+1 rounded up to a multiple
//     of 4, so each four-moment group a matrix entry gathers is one
//     contiguous load. The padding lanes j > order start at zero; no
//     moment reads them (see csrRows) and UnpackAcc never returns them.
func (s *Sweep) planes() (st, off int) {
	switch {
	case s.format == FormatBand:
		return s.band.stride, 1
	case s.reference():
		return s.rows, 0
	}
	return 0, 0
}

// PackAcc writes the order+1 vectors of src, Rows() entries each, into
// buf, one buffer of the run's packed layout (see planes) — a plan's
// accumulator block of AccWords() words, which may arrive dirty, or a
// state buffer — and zeroes its padding cells or lanes; a plane's cells
// past its right padding cell are left as they are. For a plan,
// src[j][i] holds Σ_k Weight[k]·U^(j)(k)[i] over the iterations already
// accumulated: all zero for a fresh plan.
func (s *Sweep) PackAcc(buf []float64, src [][]float64) {
	n := s.rows
	if st, off := s.planes(); st > 0 {
		for j, v := range src {
			p := buf[j*st : j*st+n+2*off]
			clear(p[:off])
			copy(p[off:], v)
			clear(p[off+n:])
		}
		return
	}
	P := s.lanes
	for i := 0; i < n; i++ {
		clear(buf[i*P+s.order+1 : i*P+P])
	}
	for j, v := range src {
		for i, x := range v {
			buf[i*P+j] = x
		}
	}
}

// UnpackAcc copies the order+1 moment vectors of buf, a plan's
// accumulator block or a state buffer, into dst, order+1 vectors of
// Rows() entries each. Padding never reaches dst.
func (s *Sweep) UnpackAcc(dst [][]float64, buf []float64) {
	if st, off := s.planes(); st > 0 {
		for j, d := range dst {
			copy(d, buf[j*st+off:])
		}
		return
	}
	P := s.lanes
	for j, d := range dst {
		for i := range d {
			d[i] = buf[i*P+j]
		}
	}
}

// seedState copies the moment-state vectors cur into pcur; every run
// copies the caller's initial state once and never touches its vectors
// again. A band run also zeroes pnext's padding cells (lent scratch
// arrives dirty): the row cells are rewritten by every iteration, and the
// kernels never read past cell n+1.
func (s *Sweep) seedState(cur [][]float64) {
	s.PackAcc(s.pcur, cur)
	if s.format == FormatBand {
		st, n := s.band.stride, s.rows
		for j := 0; j <= s.order; j++ {
			s.pnext[j*st], s.pnext[j*st+n+1] = 0, 0
		}
	}
}

// exportState copies the current moment-state vectors out of the packed
// layout into dst. Only called at iteration barriers (see InterruptHook),
// where the published state is consistent.
func (s *Sweep) exportState(dst [][]float64) { s.UnpackAcc(dst, s.pcur) }

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

// validateRun checks the initial state vectors and the plans against the
// prepared family.
func (s *Sweep) validateRun(plans []SweepPlan, cur [][]float64) error {
	n := s.rows
	if len(cur) != s.order+1 {
		return fmt.Errorf("%w: %d sweep vectors for order %d", ErrDimensionMismatch, len(cur), s.order)
	}
	for j, v := range cur {
		if len(v) != n {
			return fmt.Errorf("%w: sweep vector %d has %d entries for %d rows", ErrDimensionMismatch, j, len(v), n)
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
		if len(p.Acc) != s.AccWords() {
			return fmt.Errorf("%w: plan %d accumulator block has %d words, want %d", ErrDimensionMismatch, pi, len(p.Acc), s.AccWords())
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

// RunFrom executes iterations first..gMax and returns the number of
// sparse products performed. cur must hold the moment-state vectors
// U^(j)(first-1) — for first == 1 the caller's initial state, for larger
// first a state exported by an InterruptHook — and the plans' Acc blocks
// must already carry every accumulation of iterations k < first (see
// PackAcc). RunFrom copies cur into its own packed state once and never
// writes it, so the vectors of cur may alias one another (or a
// checkpoint's read-only state). Because each iteration's floating-point
// work depends only on the incoming state and its own Poisson weights, a
// run resumed this way is bitwise identical to the uninterrupted sweep,
// for every storage format and worker count, the reference sweep
// included. Cancellation is polled every cancelStride iterations of an
// unblocked run and at every group boundary of a temporally blocked one.
func (s *Sweep) RunFrom(ctx context.Context, first, gMax int, cur [][]float64, plans []SweepPlan, cancelStride int) (int64, error) {
	if err := s.validateRun(plans, cur); err != nil {
		return 0, err
	}
	if first < 1 {
		return 0, fmt.Errorf("%w: resume iteration %d < 1", ErrDimensionMismatch, first)
	}
	if cancelStride <= 0 {
		cancelStride = 1
	}
	s.kernel = s.resolveKernel()
	words := s.ScratchWords()
	half := words / 2
	buf := s.scratch
	if len(buf) < words {
		buf = make([]float64, words)
	}
	s.pcur, s.pnext = buf[:half:half], buf[half:words:words]
	defer func() { s.pcur, s.pnext = nil, nil }()
	s.seedState(cur)
	T, W, skew := s.resolveBlocking()
	s.resolvedT = T
	return s.runBlocked(ctx, first, gMax, plans, cancelStride, T, W, skew)
}

// interrupted invokes the interrupt hook, if any, with the completed
// iteration count and a state exporter.
func (s *Sweep) interrupted(completed int) {
	if s.onInterrupt != nil {
		s.onInterrupt(completed, s.exportState)
	}
}

// stepRange runs one iteration's work over rows [lo, hi) with explicit
// state buffers and accumulation targets, so different inner iterations
// of a group can address alternating buffers and per-iteration Poisson
// targets. The reference sweep, never blocked and never split, always
// steps all rows at once.
func (s *Sweep) stepRange(lo, hi int, cur, next []float64, active []accPair) {
	switch {
	case s.format == FormatBand:
		s.fuseBlockBand(lo, hi, cur, next, active)
	case s.reference():
		s.referenceStep(cur, next, active)
	default:
		s.fuseBlockCSR(lo, hi, cur, next, active)
	}
}

// runBlocked executes every run by split tiling. Iterations are
// processed in groups of up to T; within a group, each row block runs all
// of the group's inner iterations back to back while its rows (state,
// matrix values, diagonals, accumulators) are cache-resident, so every
// per-row array streams from DRAM once per group instead of once per
// iteration — a ~T× traffic cut for this memory-bound loop. T = 1, the
// unblocked run, is a group of one inner step per segment with no seams.
//
// A group splits the rows into contiguous segments [b_w, b_{w+1}), one per
// worker (see groupSplits), and runs in two phases. With skew s =
// max(lo, hi) of the dependency reach, worker w computes inner step t
// (1-based, iteration k0+t) over the trapezoid
//
//	Z(w, t) = [b_w + (t−1)·s, b_{w+1} − (t−1)·s)
//
// whose outer edges at rows 0 and n do not shrink, as the serial
// depth-first parallelogram of runTrapezoid. After one join the calling
// goroutine fills the seam triangle at every split b,
//
//	S(b, t) = [b − (t−1)·s, b + (t−1)·s),  t = 2..Tg,
//
// in increasing t (runSeams). One worker is the one-segment case: no
// split, no seam, no goroutine, the calling goroutine runs it. A team runs
// every segment on its own goroutines while the calling goroutine waits
// (see startSplitTeam).
//
// Every hazard is a row range of one of the two packed state buffers,
// which alternate per inner step (odd steps read pcur and write pnext,
// even steps the reverse):
//
//   - Trapezoid dependencies: Z(w, t) widened by the reach lies inside
//     Z(w, t−1), because each inner edge moves s ≥ lo, hi rows per step.
//     A worker reads only rows it computed itself, or at step 1 the
//     group's input state.
//   - Cross-worker races: a worker writes only rows of its own segment.
//     It reads past its splits only at step 1, at most s rows deep and
//     from the input buffer, which its neighbour first writes at step 2,
//     and then only rows at least s deep inside its own segment.
//   - Seam dependencies: S(b, t) widened by the reach lies inside
//     S(b, t−1) and the two neighbouring trapezoids at step t−1. Segments
//     at least 2·(Tg−1)·s rows wide keep those trapezoids non-empty down
//     to step Tg and the seams of adjacent splits disjoint.
//   - Ping-pong: a trapezoid's step t+2 overwrites the buffer its step t
//     wrote, but only rows outside [b − (t+1)·s, b + (t+1)·s), while
//     S(b, t+1) reads the step-t rows [b − t·s − lo, b + t·s + hi),
//     inside that range. A seam step overwrites only its own step t−2
//     rows, which no later step reads. Inside a parallelogram, block m's
//     step t+1 ends s − lo ≥ 0 rows below where block m+1's step t reads
//     begin.
//
// Each (row, iteration) pair is therefore computed exactly once, a row's
// iterations in increasing order (a row leaves its trapezoid for good and
// the seam takes its remaining steps), and each step applies its Poisson
// accumulations inside the kernel at its own iteration's weights. The
// per-element operation sequence — and therefore every bit of the result
// — is identical to the reference sweep: blocking only reorders work
// between different (row, iteration) pairs.
//
// Context cancellation is observed at group boundaries, where the state
// is a consistent iteration snapshot (checkpoint barriers land there):
// every cancelStride iterations when T = 1, at every group when T > 1.
// Resume tokens from one depth remain valid at any other, because groups
// are re-based at `first`. Each schedule resolves a step's accumulation
// targets into its own buffer as it goes, so one worker allocates nothing
// per iteration.
func (s *Sweep) runBlocked(ctx context.Context, first, gMax int, plans []SweepPlan, cancelStride, T, W, skew int) (int64, error) {
	active := make([]accPair, 0, len(plans))
	var tasks []chan splitTask
	var done chan struct{}
	var splits []int // a team's segment boundaries
	splitTg := 0     // the group depth splits was resolved for
	if s.workers > 1 {
		var stop func()
		tasks, done, stop = s.startSplitTeam(plans, W, skew)
		defer stop()
	}
	// An unblocked run polls before every iteration that is a multiple of
	// cancelStride; poll is the next such boundary.
	poll := (first+cancelStride-1)/cancelStride*cancelStride - 1
	for k0 := first - 1; k0 < gMax; {
		if k0 == s.barrierAt && k0 >= first && s.onBarrier != nil {
			s.onBarrier(k0, s.exportState)
		}
		if T > 1 || k0 == poll {
			poll += cancelStride
			if err := ctx.Err(); err != nil {
				// Group boundary: iteration k0 fully complete, k0+1 not started.
				s.interrupted(k0)
				return 0, err
			}
		}
		Tg := min(T, gMax-k0) // ragged final group when T does not divide the span
		if k0 < s.barrierAt && s.onBarrier != nil {
			Tg = min(Tg, s.barrierAt-k0)
		}
		if tasks == nil {
			active = s.runTrapezoid(plans, active, k0, Tg, 0, s.rows, W, skew)
		} else {
			if Tg != splitTg {
				splits, splitTg = s.groupSplits(splits, Tg, skew), Tg
			}
			for w := 0; w+1 < len(splits); w++ {
				tasks[w] <- splitTask{k0: k0, tg: Tg, lo: splits[w], hi: splits[w+1]}
			}
			for w := 0; w+1 < len(splits); w++ {
				<-done
			}
			active = s.runSeams(plans, active, k0, Tg, splits[1:len(splits)-1], skew)
		}
		if Tg%2 == 1 {
			// Odd group depth leaves the newest state in pnext; swap so the
			// group-boundary invariant (pcur = iteration k0) holds for
			// exportState and the next group.
			s.pcur, s.pnext = s.pnext, s.pcur
		}
		k0 += Tg
	}
	return s.matVecs(gMax - first + 1), nil
}

// splitTask is one worker's trapezoid of a split-tiled group: inner steps
// 1..tg after iteration k0 over the segment [lo, hi).
type splitTask struct{ k0, tg, lo, hi int }

// startSplitTeam starts the goroutines that run the trapezoids of the
// segments, one per worker. Each runs the tasks sent on its own channel
// and reports each on done; stop closes the channels and waits for the
// workers to exit, and must only be called while none holds a task. The
// calling goroutine runs no segment of its own: a goroutine it readies
// while it keeps running waits in its P's run-next slot, which an idle P
// steals only after a backoff — on a 2-core Xeon, a 2-worker unblocked
// sweep of 100,001 rows ran 10% slower per iteration that way.
func (s *Sweep) startSplitTeam(plans []SweepPlan, W, skew int) (tasks []chan splitTask, done chan struct{}, stop func()) {
	tasks = make([]chan splitTask, s.workers)
	done = make(chan struct{}, len(tasks))
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for w := range tasks {
		tasks[w] = make(chan splitTask, 1)
		go func(in <-chan splitTask) {
			defer wg.Done()
			active := make([]accPair, 0, len(plans))
			for tk := range in {
				active = s.runTrapezoid(plans, active, tk.k0, tk.tg, tk.lo, tk.hi, W, skew)
				done <- struct{}{}
			}
		}(tasks[w])
	}
	return tasks, done, func() {
		for _, ch := range tasks {
			close(ch)
		}
		wg.Wait()
	}
}

// groupSplits returns, in buf, the segment boundaries of a group of depth
// tg: 0, the team's partition points that leave every segment at least
// 2·(tg−1)·skew rows wide (and non-empty), and n. A narrower segment would
// let its trapezoid empty out before step tg and adjacent seams overlap,
// so a thin partition merges into its neighbour — down to the single
// segment of the serial schedule — rather than shrinking tg, which keeps
// forced depths and group boundaries independent of the team size.
func (s *Sweep) groupSplits(buf []int, tg, skew int) []int {
	minW := max(2*(tg-1)*skew, 1)
	buf = append(buf[:0], 0)
	for _, b := range s.blocks[1 : len(s.blocks)-1] {
		if b-buf[len(buf)-1] >= minW && s.rows-b >= minW {
			buf = append(buf, b)
		}
	}
	return append(buf, s.rows)
}

// runTrapezoid runs inner steps 1..tg of the group after iteration k0
// over the segment [lo, hi) as a depth-first parallelogram of W-row
// blocks: block m at step t computes
//
//	[lo + m·W − (t−1)·s, lo + (m+1)·W − (t−1)·s) ∩ Z(t)
//
// where Z(t) is the segment's trapezoid (runBlocked), all tg steps of
// block m before block m+1 touches memory. Sliding the window s rows left
// per step keeps the dependency cone satisfied: block m's step-t rows
// need step-(t−1) rows up to its upper edge + hi ≤ its own step-(t−1)
// upper edge, and below it only rows of blocks < m, all computed. A
// one-step group is the whole segment in one kernel call, which the
// kernels tile themselves. active is the caller's accumulation-target
// buffer, returned for reuse.
func (s *Sweep) runTrapezoid(plans []SweepPlan, active []accPair, k0, tg, lo, hi, W, skew int) []accPair {
	if tg == 1 {
		active = gatherActive(plans, k0+1, active[:0])
		s.stepRange(lo, hi, s.pcur, s.pnext, active)
		return active
	}
	blocks := (hi - lo + (tg-1)*skew + W - 1) / W
	for m := 0; m < blocks; m++ {
		cur, next := s.pcur, s.pnext
		for t := 1; t <= tg; t++ {
			in := (t - 1) * skew
			zl, zr := 0, s.rows
			if lo > 0 {
				zl = lo + in
			}
			if hi < s.rows {
				zr = hi - in
			}
			l := max(lo+m*W-in, zl)
			r := min(lo+(m+1)*W-in, zr)
			if l < r {
				active = gatherActive(plans, k0+t, active[:0])
				s.stepRange(l, r, cur, next, active)
			}
			cur, next = next, cur
		}
	}
	return active
}

// runSeams fills the seam triangles S(b, t) = [b − (t−1)·s, b + (t−1)·s)
// at each split b for t = 2..tg, after every trapezoid of the group has
// finished (see runBlocked). groupSplits keeps every seam inside [0, n).
func (s *Sweep) runSeams(plans []SweepPlan, active []accPair, k0, tg int, splits []int, skew int) []accPair {
	for _, b := range splits {
		// Step 2 reads the buffer step 1 wrote (pnext).
		cur, next := s.pnext, s.pcur
		for t := 2; t <= tg; t++ {
			if in := (t - 1) * skew; in > 0 {
				active = gatherActive(plans, k0+t, active[:0])
				s.stepRange(b-in, b+in, cur, next, active)
			}
			cur, next = next, cur
		}
	}
	return active
}

// fuseBlockCSR is the CSR32 kernel at every moment order, on the
// interleaved layout (see planes). Tiles of s.tile rows run the
// recursion — csrLanesAVX2 when the kernel is AVX2, else csrRows and an
// impulse sweep's impulseRows — then one accumulation pass per plan while
// the tile is cache-hot: a += w·x over the tile's P·rows contiguous
// words, padding lanes included, as planeAccAVX2 on one plane wherever
// the SIMD gate is open and a plain loop otherwise. The split is bitwise
// neutral: each a += w·x reloads the stored x bit-exactly, and only work
// of different (plan, element) pairs is reordered.
func (s *Sweep) fuseBlockCSR(lo, hi int, cur, next []float64, active []accPair) {
	P := s.lanes
	for t0 := lo; t0 < hi; t0 += s.tile {
		t1 := min(t0+s.tile, hi)
		if s.kernel == KernelAVX2 {
			csrLanesAVX2(t1-t0, &s.a.rowPtr[t0], &s.col32[0], &s.a.val[0], &cur[0], &cur[t0*P], &next[t0*P], &s.diag1[t0], &s.diag2[t0], P/4)
		} else {
			s.csrRows(t0, t1, cur, next)
			if len(s.imp) > 0 {
				s.impulseRows(t0, t1, cur, next)
			}
		}
		x := next[t0*P : t1*P]
		for _, ap := range active {
			a := ap.acc[t0*P : t1*P][:len(x)]
			if s.simd {
				planeAccAVX2(len(x), &x[0], 0, 1, &a[0], 0, ap.w)
				continue
			}
			for k, v := range x {
				a[k] += ap.w * v
			}
		}
	}
}

// csrRows is the scalar recursion body of fuseBlockCSR for rows
// [lo, hi). It walks each row's entries once per four-moment group (the
// matrix streams from memory once per iteration; later walks hit L1),
// the group's sums in registers seeded +0, then adds the d1 and d2
// coupling terms: each moment sees referenceStep's exact operation
// sequence, the row products in entry order, then d1, then d2. Padding
// lanes j > order run the same recursion; a lane reads only lanes at or
// below it, so no moment reads one, and none is accumulated or exported.
// csrLanesAVX2 replays the body lane for lane.
func (s *Sweep) csrRows(lo, hi int, cur, next []float64) {
	P := s.lanes
	rowPtr, val, col32 := s.a.rowPtr, s.a.val, s.col32
	for i := lo; i < hi; i++ {
		rv := val[rowPtr[i]:rowPtr[i+1]]
		rc := col32[rowPtr[i]:rowPtr[i+1]]
		rc = rc[:len(rv)] // bounds-check elimination for rc[p]
		civ := cur[i*P : i*P+P : i*P+P]
		nv := next[i*P : i*P+P : i*P+P]
		d1i, d2i := s.diag1[i], s.diag2[i]
		for g := 0; g < P; g += 4 {
			var s0, s1, s2, s3 float64
			for p, v := range rv {
				c := int(rc[p])*P + g
				cv := cur[c : c+4 : c+4]
				s3 += v * cv[3]
				s2 += v * cv[2]
				s1 += v * cv[1]
				s0 += v * cv[0]
			}
			if g == 0 {
				s3 += d1i * civ[2]
				s3 += d2i * civ[1]
				s2 += d1i * civ[1]
				s2 += d2i * civ[0]
				s1 += d1i * civ[0]
			} else {
				cw := civ[g-2 : g+3 : g+3] // lanes g-2..g+2
				s3 += d1i * cw[4]
				s3 += d2i * cw[3]
				s2 += d1i * cw[3]
				s2 += d2i * cw[2]
				s1 += d1i * cw[2]
				s1 += d2i * cw[1]
				s0 += d1i * cw[1]
				s0 += d2i * cw[0]
			}
			gv := nv[g : g+4 : g+4]
			gv[0], gv[1], gv[2], gv[3] = s0, s1, s2, s3
		}
	}
}

// impulseRows adds the impulse terms Σ_m coef[m]·(imp[m-1]·cur[j-m]) to
// rows [lo, hi) of next, one impulse matrix at a time: walks of a row of
// imp[m-1] keep one sum per pair (j, m), j = m..order, four pairs at a
// time in registers, adding u·cur[c·P + j−m] for each stored entry (c, u)
// — CSR.MatVecAdd's terms, in its order, from +0 — and moment j takes
// coef[m]·sum. Each moment thus takes its terms in increasing m after its
// coupling terms, as in referenceStep.
func (s *Sweep) impulseRows(lo, hi int, cur, next []float64) {
	P, order := s.lanes, s.order
	for m, im := range s.imp[:order] {
		cf, rowPtr, colIdx, val := s.coef[m+1], im.rowPtr, im.colIdx, im.val
		for i := lo; i < hi; i++ {
			p0, p1 := rowPtr[i], rowPtr[i+1]
			for g := 0; g < order-m; g += 4 {
				var t0, t1, t2, t3 float64
				for p := p0; p < p1; p++ {
					u, c := val[p], colIdx[p]*P+g
					x := cur[c : c+4 : c+4]
					t3 += u * x[3]
					t2 += u * x[2]
					t1 += u * x[1]
					t0 += u * x[0]
				}
				k := i*P + m + 1 + g
				switch order - m - g {
				default:
					next[k+3] += cf * t3
					fallthrough
				case 3:
					next[k+2] += cf * t2
					fallthrough
				case 2:
					next[k+1] += cf * t1
					fallthrough
				case 1:
					next[k] += cf * t0
				}
			}
		}
	}
}

// fuseBlockBand is the band kernel at every moment order, on the
// row-lane layout (see planes): moment j of row i lives at cell 1+i of
// state plane j, and the band's sub-diagonal, diagonal and super-diagonal
// are planes too, so every operand of four consecutive rows of one moment
// is one contiguous load — zero index loads, zero gathers, no lane
// shuffles. The padding cell at each plane end absorbs the out-of-matrix
// cells of the first and last row, so the loop has no boundary branches;
// padded cells' 0.0·x products are bitwise neutral (see band.go), leaving
// every output element with exactly the reference operation sequence.
//
// On AVX2 hardware every row of [lo, hi) runs the assembly body
// (band_simd_amd64.s), whose lanes execute bandRows' exact operation
// sequence with the same IEEE rounding: four rows per group, the last
// (hi-lo) mod 4 rows as one masked group that writes no cell outside the
// range. bandRows runs only without AVX2 (no hardware support, a
// kill-switch, arm64). Accumulators share the state's row-lane layout, so
// a single plan's accumulation is fused into the kernel as vector adds
// straight into its planes; with several plans the kernel runs
// unaccumulated per tile, followed by one planeAccAVX2 pass per plan (the
// split is bitwise neutral: each a_j[i] += w*s_j reads back the stored
// s_j bit-exactly, and only work between different (plan, element) pairs
// is reordered).
func (s *Sweep) fuseBlockBand(lo, hi int, cur, next []float64, active []accPair) {
	if !s.simd {
		s.bandRows(lo, hi, cur, next, active)
		return
	}
	if lo >= hi {
		return
	}
	st, bval, order := s.band.stride, s.band.val, s.order
	d1, d2 := s.diag1, s.diag2
	if len(active) <= 1 {
		var acc *float64
		var w float64
		if len(active) == 1 {
			acc, w = &active[0].acc[1+lo], active[0].w
		}
		bandLanesAVX2(hi-lo, &bval[lo], &cur[1+lo], &next[1+lo], st, order, &d1[lo], &d2[lo], acc, w)
		return
	}
	// Whole groups per tile, so only the range's last tile has a masked
	// group.
	tile := max(s.tile&^3, 4)
	for t0 := lo; t0 < hi; t0 += tile {
		t1 := min(t0+tile, hi)
		bandLanesAVX2(t1-t0, &bval[t0], &cur[1+t0], &next[1+t0], st, order, &d1[t0], &d2[t0], nil, 0)
		for _, ap := range active {
			planeAccAVX2(t1-t0, &next[1+t0], st, order+1, &ap.acc[1+t0], st, ap.w)
		}
	}
}

// bandRows is the scalar body of fuseBlockBand for rows [lo, hi) — the
// whole band sweep without AVX2 — one moment plane at a time: the three
// band products in column order from a +0 sum, then the d1 and d2
// order-coupling terms — referenceStep's sequence — and the active
// accumulations (a single plan's fused into the loop, several as passes
// over the finished plane). Every operand is re-sliced to the range
// first (plane cells lo..hi+1 hold rows lo-1..hi), so the loops run free
// of bounds checks.
func (s *Sweep) bandRows(lo, hi int, cur, next []float64, active []accPair) {
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
	rows := func(buf []float64, j int) []float64 { return plane(buf, j)[1:][:m] }
	one := len(active) == 1
	var w float64
	for j := 0; j <= s.order; j++ {
		c, nj := plane(cur, j), rows(next, j)
		a := nj // written only when one is set
		if one {
			w, a = active[0].w, rows(active[0].acc, j)
		}
		switch j {
		case 0:
			for k, l := range sub {
				var sum float64
				sum += l * c[k]
				sum += dg[k] * c[k+1]
				sum += sup[k] * c[k+2]
				nj[k] = sum
				if one {
					a[k] += w * sum
				}
			}
		case 1:
			c1 := rows(cur, 0)
			for k, l := range sub {
				var sum float64
				sum += l * c[k]
				sum += dg[k] * c[k+1]
				sum += sup[k] * c[k+2]
				sum += d1[k] * c1[k]
				nj[k] = sum
				if one {
					a[k] += w * sum
				}
			}
		default:
			c1, c2 := rows(cur, j-1), rows(cur, j-2)
			for k, l := range sub {
				var sum float64
				sum += l * c[k]
				sum += dg[k] * c[k+1]
				sum += sup[k] * c[k+2]
				sum += d1[k] * c1[k]
				sum += d2[k] * c2[k]
				nj[k] = sum
				if one {
					a[k] += w * sum
				}
			}
		}
		if len(active) > 1 {
			for _, ap := range active {
				w, a := ap.w, rows(ap.acc, j)
				for k, v := range nj {
					a[k] += w * v
				}
			}
		}
	}
}

// referenceStep is one iteration of the serial reference sweep, the
// oracle the fused kernels are tested against and not a production path
// (only an explicit negative worker request, see PlanWorkers, reaches
// it): one full-vector pass per term on plain planes (see planes),
// exactly the operation structure of the original solver loop, the sweep
// matrix through its uint32 columns, then each active plan's
// accumulation over the finished state.
func (s *Sweep) referenceStep(cur, next []float64, active []accPair) {
	n := s.rows
	rowPtr, val, col32 := s.a.rowPtr, s.a.val, s.col32
	plane := func(buf []float64, j int) []float64 { return buf[j*n : (j+1)*n] }
	for j := s.order; j >= 0; j-- {
		x, y := plane(cur, j), plane(next, j)
		for i := range y {
			var sum float64
			for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
				sum += val[p] * x[col32[p]]
			}
			y[i] = sum
		}
		if j >= 1 {
			for i, v := range plane(cur, j-1) {
				y[i] += s.diag1[i] * v
			}
		}
		if j >= 2 {
			for i, v := range plane(cur, j-2) {
				y[i] += s.diag2[i] * v
			}
		}
		if len(s.imp) > 0 {
			for m := 1; m <= j; m++ {
				// The dimensions were validated when the sweep was built.
				_ = s.imp[m-1].MatVecAdd(s.coef[m], plane(cur, j-m), y)
			}
		}
	}
	for _, ap := range active {
		for i, v := range next[:(s.order+1)*n] {
			ap.acc[i] += ap.w * v
		}
	}
}
