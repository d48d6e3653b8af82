package sparse

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"unsafe"
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
// channel barrier instead of being respawned G times. A temporally
// blocked team joins only once per group of iterations (see runBlocked).
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

	// SIMD dispatch (see simd.go): nosimd is the per-sweep kill-switch
	// (SetNoSIMD), simd the resolved gate (hardware support minus the
	// kill-switches), kernel the label of the last run's dispatch.
	nosimd bool
	simd   bool
	kernel string

	// Resolved storage (see MatrixFormat): the fused kernels stream the
	// tridiagonal band planes (every order), QBD windows or compact uint32
	// column indexes (order 3), cutting the memory traffic of this
	// bandwidth-bound loop. All formats are bitwise identical.
	format MatrixFormat
	band   *Band    // set when format == FormatBand
	col32  []uint32 // set when format == FormatCSR32
	qbd    *QBD     // set when format == FormatQBD

	// scratch is optional caller-lent backing for pcur/pnext (see
	// SetScratch), letting pooled solves skip the two largest per-run
	// allocations.
	scratch []float64

	// onInterrupt, when set, is invoked at the iteration barrier where a
	// context cancellation is observed, before Run returns the context's
	// error (see SetInterruptHook). It is the seam checkpointable solves
	// hang their snapshot capture on.
	onInterrupt InterruptHook

	// Iteration state published by the driver before each barrier release;
	// the channel synchronization orders these writes before the workers'
	// reads. pcur/pnext, the packed state, replace cur/next for the
	// impulse-free shapes with a dedicated layout (see stateLayout): the
	// row-lane planes of a band sweep at every order (see fuseBlockBand),
	// the interleaved order-3 groups of CSR32 and QBD (see
	// fuseBlock3Compact).
	cur, next   [][]float64
	pcur, pnext []float64
	active      []accPair
}

// stateLayout is the moment-state layout a fused run uses.
type stateLayout int

const (
	// layoutPlanar: the caller's cur/next vectors, one per moment — the
	// impulse shapes and the CSR32/QBD orders other than 3 (fuseBlock).
	layoutPlanar stateLayout = iota
	// layoutRowLane: order+1 padded planes per buffer at
	// bandPlaneStride(rows) — every impulse-free band sweep.
	layoutRowLane
	// layoutInterleaved: four moments per state, cur[i*4+j] — the
	// order-3 impulse-free CSR32 and QBD sweeps.
	layoutInterleaved
)

// stateLayout resolves the layout of a fused run from the shape. The
// reference-only csr64 storage has none (it never runs fused).
func (s *Sweep) stateLayout() stateLayout {
	switch {
	case len(s.imp) > 0 || s.format == FormatCSR64:
		return layoutPlanar
	case s.format == FormatBand:
		return layoutRowLane
	case s.order == 3:
		return layoutInterleaved
	}
	return layoutPlanar
}

// parallelThreshold is the row count at which automatic worker selection
// moves from the inline 1-worker fused sweep to a GOMAXPROCS team. A
// blocked team joins once per group of T iterations (see runBlocked), and
// each join wakes a parked worker; below a few thousand rows a group's
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
	if resolved == FormatBand {
		s.tile = bandL1Tile
		if len(imp) == 0 {
			s.tile = bandTile(order)
		}
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

// ScratchWords returns the float64 count Run uses for its packed
// moment-state buffers: two buffers of order+1 row-lane planes of
// bandPlaneStride(rows) words each (padding cells included) for a band
// sweep, two of 4·rows interleaved words for an order-3 CSR32 or QBD
// sweep, and 0 for the planar shapes (impulse terms, other CSR32/QBD
// orders, the reference-only csr64 storage), which run on the caller's
// vectors.
func (s *Sweep) ScratchWords() int {
	switch s.stateLayout() {
	case layoutRowLane:
		return 2 * (s.order + 1) * s.band.stride
	case layoutInterleaved:
		return 2 * 4 * s.rows
	}
	return 0
}

// PlaneStride returns the stride, in float64 words, of the row-lane
// planes a band sweep runs on (bandPlaneStride(rows)), and rows for
// every other storage. A plan whose accumulators Acc[j] start j·
// PlaneStride() words into one buffer — the layout the solver carves —
// has its Poisson accumulation fused into the band kernel; any other
// layout is accumulated in a separate vector pass, bitwise identically.
func (s *Sweep) PlaneStride() int {
	if s.stateLayout() == layoutRowLane {
		return s.band.stride
	}
	return s.rows
}

// SetScratch lends Run a scratch buffer of at least ScratchWords()
// float64s for its packed state (contents need not be zeroed),
// eliminating the two largest per-run allocations; pooled solves use it.
// A short (or nil) buffer is ignored and Run allocates as before. The
// buffer is used only while Run executes and may be reused afterwards.
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

// SetTemporalBlock requests temporal blocking for Run: t
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
	// sweepTileDefault is the default row-tile width (see SetSweepTile),
	// and so the temporal block width, of every sweep but the band one: a
	// tile's slices of every cur/next/acc vector — roughly
	// (3 + plans)·(order+1)·8·tile bytes — plus its matrix rows must stay
	// cache-resident across the kernel's per-term passes. 1024 rows keeps
	// that footprint near 100 KiB for the paper-sized order-3 case,
	// comfortably inside L2.
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
// (T, W, skew) the blocked sweep runs: T inner iterations per group over
// blocks of W rows, each inner step's row window sliding skew rows to the
// left (the split-tiled schedule of runBlocked). T == 1 means the run
// stays unblocked. The schedule is exact at every block width, so W is
// the tile as set.
func (s *Sweep) resolveBlocking() (T, W, skew int) {
	T, W = 1, s.tile
	if s.tblock < 0 || s.tblock == 1 {
		return
	}
	lo, hi, ok := s.blockReach()
	if !ok {
		return
	}
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
		} else if s.ScratchWords() < temporalBlockMinWords {
			return 1, W, skew // state already cache-resident: blocking cannot pay
		}
		switch s.format {
		case FormatBand, FormatQBD:
			// The index-free formats are memory-bound and always gain.
		case FormatCSR32:
			// The scalar CSR kernel gains nothing from blocking (the
			// index-chasing row loop, not DRAM bandwidth, is the
			// bottleneck, and the blocking bookkeeping cost ~12-29%
			// measured). The AVX2 kernel retires the whole gather in one
			// load and is memory-bound like the band kernel — blocking
			// it measured ~22% faster on the N=100,001 ablation — so it
			// auto-blocks, but only while the bandwidth-derived skew is
			// in the regime the measurement covered (wider reaches shrink
			// the depth until blocking is all halo).
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
// into dst — order+1 vectors of Rows() entries each — out of the packed
// layout when the run uses one. A sweep resumed from that state
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
	case s.pcur == nil:
		for j := range dst {
			copy(dst[j], s.cur[j])
		}
	case s.format == FormatBand:
		st := s.band.stride
		for j := range dst {
			copy(dst[j], s.pcur[j*st+1:j*st+1+s.rows])
		}
	default:
		for j := range dst {
			dj := dst[j]
			for i := 0; i < s.rows; i++ {
				dj[i] = s.pcur[i*4+j]
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
// after Run are unspecified. A run on a packed layout (ScratchWords > 0)
// copies cur into its own state once and writes neither cur nor next,
// so there next may alias cur and the vectors of cur may alias one
// another (or a checkpoint's read-only state).
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

	// Impulse-free shapes run the whole sweep on a packed state layout
	// (see stateLayout). Every band sweep uses the row-lane layout: plane
	// j of pcur is pcur[j*st : (j+1)*st] with st = bandPlaneStride(rows),
	// row i at cell 1+i and one zero padding cell at each end, so a
	// vector of four consecutive rows of one moment is one contiguous load
	// and the first and last rows need no boundary clamping
	// (out-of-matrix band cells multiply padding zeros, which is bitwise
	// neutral, see band.go). Order-3 CSR32 and QBD sweeps use the
	// interleaved layout: pcur[i*4+j] holds moment j of state i, so all
	// four values a matrix entry gathers share one cache line. The planar
	// cur is read once here and next stays untouched.
	layout := s.stateLayout()
	s.kernel = s.resolveKernel(layout)
	packed := layout != layoutPlanar
	if packed {
		n := s.rows
		words := s.ScratchWords()
		half := words / 2
		if len(s.scratch) >= words {
			buf := s.scratch[:words]
			s.pcur, s.pnext = buf[:half:half], buf[half:words:words]
		} else {
			buf := make([]float64, words)
			s.pcur, s.pnext = buf[:half:half], buf[half:]
		}
		if layout == layoutRowLane {
			// Zero the padding cells (lent scratch arrives dirty); the row
			// cells are fully (re)written here and by every iteration, and
			// the kernels never read past cell n+1.
			st := s.band.stride
			for j := 0; j <= s.order; j++ {
				c, x := s.pcur[j*st:j*st+n+2], s.pnext[j*st:j*st+n+2]
				c[0], c[n+1], x[0], x[n+1] = 0, 0, 0, 0
				copy(c[1:n+1], cur[j])
			}
		} else {
			for j := 0; j <= 3; j++ {
				cj := cur[j]
				for i := 0; i < n; i++ {
					s.pcur[i*4+j] = cj[i]
				}
			}
		}
		defer func() { s.pcur, s.pnext = nil, nil }()
	} else {
		s.cur, s.next = cur, next
	}

	// Temporal blocking runs only the packed layouts: the planar path
	// serves the impulse shapes and the CSR32/QBD orders other than 3,
	// and its per-term full-vector passes would defeat the
	// cache-residency the blocking buys.
	s.resolvedT = 1
	if packed {
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
			s.swap(packed)
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
		s.swap(packed)
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
	if s.pcur != nil {
		s.stepRange(lo, hi, s.pcur, s.pnext, s.active)
		return
	}
	s.fuseBlock(lo, hi, s.cur, s.next, s.active)
}

// stepRange runs one iteration's fused work on the packed state over
// rows [lo, hi) with explicit state buffers and accumulation targets,
// dispatching on the resolved storage format. The temporally blocked
// drivers call it directly so different inner iterations of a group can
// address alternating buffers and per-iteration Poisson targets without
// republishing the shared fields.
func (s *Sweep) stepRange(lo, hi int, cur, next []float64, active []accPair) {
	switch s.format {
	case FormatBand:
		s.fuseBlockBand(lo, hi, cur, next, active)
	case FormatCSR32:
		if s.simd && hi > lo && len(s.a.val) > 0 {
			s.fuseBlock3CompactAVX2(lo, hi, cur, next, active)
			return
		}
		s.fuseBlock3Compact(lo, hi, cur, next, active)
	case FormatQBD:
		if s.simd && hi > lo {
			s.fuseBlock3QBDAVX2(lo, hi, cur, next, active)
			return
		}
		s.fuseBlock3QBD(lo, hi, cur, next, active)
	}
}

// swap exchanges the published current/next state after an iteration.
func (s *Sweep) swap(packed bool) {
	if packed {
		s.pcur, s.pnext = s.pnext, s.pcur
		return
	}
	s.cur, s.next = s.next, s.cur
}

// runBlocked executes the temporally blocked sweep by split tiling.
// Iterations are processed in groups of up to T; within a group, each row
// block runs all of the group's inner iterations back to back while its
// rows (state, matrix values, diagonals, accumulators) are cache-resident,
// so every per-row array streams from DRAM once per group instead of once
// per iteration — a ~T× traffic cut for this memory-bound loop.
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
// split, no seam, no goroutine.
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
// — is identical to the unblocked sweep: blocking only reorders work
// between different (row, iteration) pairs.
//
// Context cancellation is observed at group boundaries only, where the
// state is a consistent iteration snapshot (checkpoint barriers land
// there); resume tokens from unblocked runs remain valid because groups
// are re-based at `first`. Each schedule resolves a step's accumulation
// targets into its own buffer as it goes, so one worker allocates nothing
// beyond the unblocked sweep.
func (s *Sweep) runBlocked(ctx context.Context, first, gMax int, plans []SweepPlan, active []accPair, T, W, skew int) (int64, error) {
	var tasks []chan splitTask
	var done chan struct{}
	splits := []int{0, s.rows} // one worker: a single segment, no seam
	if s.workers > 1 {
		var stop func()
		tasks, done, stop = s.startSplitTeam(plans, W, skew)
		defer stop()
		splits = make([]int, 0, s.workers+1)
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
		if tasks != nil {
			splits = s.groupSplits(splits, Tg, skew)
		}
		for w := 1; w+1 < len(splits); w++ {
			tasks[w-1] <- splitTask{k0: k0, tg: Tg, lo: splits[w], hi: splits[w+1]}
		}
		active = s.runTrapezoid(plans, active, k0, Tg, splits[0], splits[1], W, skew)
		for w := 1; w+1 < len(splits); w++ {
			<-done
		}
		active = s.runSeams(plans, active, k0, Tg, splits[1:len(splits)-1], skew)
		if Tg%2 == 1 {
			// Odd group depth leaves the newest state in pnext; swap so the
			// group-boundary invariant (pcur = iteration k0) holds for
			// exportState and the next group.
			s.swap(true)
		}
		k0 += Tg
	}
	return s.matVecs(gMax - first + 1), nil
}

// splitTask is one worker's trapezoid of a split-tiled group: inner steps
// 1..tg after iteration k0 over the segment [lo, hi).
type splitTask struct{ k0, tg, lo, hi int }

// startSplitTeam starts the workers−1 goroutines that run the trapezoids
// of every segment but the first, which the calling goroutine runs. Each
// worker runs the tasks sent on its own channel and reports each on done;
// stop closes the channels and waits for the workers to exit, and must
// only be called while none holds a task.
func (s *Sweep) startSplitTeam(plans []SweepPlan, W, skew int) (tasks []chan splitTask, done chan struct{}, stop func()) {
	tasks = make([]chan splitTask, s.workers-1)
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
// upper edge, and below it only rows of blocks < m, all computed. active
// is the caller's accumulation-target buffer, returned for reuse.
func (s *Sweep) runTrapezoid(plans []SweepPlan, active []accPair, k0, tg, lo, hi, W, skew int) []accPair {
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

// fuseBlockBand is the band kernel at every moment order, on the
// row-lane layout Run sets up: moment j of row i lives at cell 1+i of
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
// kill-switch, arm64). One plan whose accumulators lie at the state
// plane stride (see
// PlaneStride; the solver carves them so) has its accumulation fused
// into the kernel as vector adds straight into those planes; otherwise
// the kernel runs unaccumulated per tile, followed by one vector
// accumulation pass per plan (the split is bitwise neutral: each
// a_j[i] += w*s_j reads back the stored s_j bit-exactly, and only work
// between different (plan, element) pairs is reordered).
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
	// One plan whose accumulators lie at the state plane stride has its
	// accumulation fused into the kernel.
	var fused *float64
	var w float64
	if len(active) == 1 {
		if a, as := planeStride(active[0].acc, lo); a != nil && (as == st || order == 0) {
			fused, w = a, active[0].w
		}
	}
	if fused != nil || len(active) == 0 {
		bandLanesAVX2(hi-lo, &bval[lo], &cur[1+lo], &next[1+lo], st, order, &d1[lo], &d2[lo], fused, w)
	} else {
		// Whole groups per tile, so only the range's last tile has a
		// masked group.
		tile := max(s.tile&^3, 4)
		for t0 := lo; t0 < hi; t0 += tile {
			t1 := min(t0+tile, hi)
			bandLanesAVX2(t1-t0, &bval[t0], &cur[1+t0], &next[1+t0], st, order, &d1[t0], &d2[t0], nil, 0)
			for _, ap := range active {
				if a, as := planeStride(ap.acc, t0); a != nil {
					planeAccAVX2(t1-t0, &next[1+t0], st, order+1, a, as, ap.w)
					continue
				}
				for j, a := range ap.acc {
					planeAccAVX2(t1-t0, &next[j*st+1+t0], st, 1, &a[t0], 0, ap.w)
				}
			}
		}
	}
}

// planeStride returns &acc[0][lo] and the distance in words between
// consecutive accumulator planes when all of them lie at one uniform
// stride, so a vector body can walk them from a single pointer, or nil
// when they do not.
func planeStride(acc [][]float64, lo int) (*float64, int) {
	base := uintptr(unsafe.Pointer(&acc[0][0]))
	var st uintptr
	for j := 1; j < len(acc); j++ {
		d := uintptr(unsafe.Pointer(&acc[j][0])) - base
		if j == 1 {
			st = d
		} else if d != uintptr(j)*st {
			return nil, 0
		}
	}
	return &acc[0][lo], int(st) / 8
}

// bandRows is the scalar body of fuseBlockBand for rows [lo, hi) — the
// whole band sweep without AVX2 — one
// moment plane at a time: the three band products in column order from a
// +0 sum, then the d1 and d2 order-coupling terms — RunReference's
// sequence — and the active accumulations (a single plan's fused into
// the loop, several as passes over the finished plane). Every operand is
// re-sliced to the range first (plane cells lo..hi+1 hold rows
// lo-1..hi), so the loops run free of bounds checks.
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
	centre := func(j int) []float64 { return plane(cur, j)[1:][:m] }
	one := len(active) == 1
	var w float64
	for j := 0; j <= s.order; j++ {
		c, nj := plane(cur, j), plane(next, j)[1:][:m]
		a := nj // written only when one is set
		if one {
			w, a = active[0].w, active[0].acc[j][lo:hi][:m]
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
			c1 := centre(0)
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
			c1, c2 := centre(j-1), centre(j-2)
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
				w, a := ap.w, ap.acc[j][lo:hi][:m]
				for k, v := range nj {
					a[k] += w * v
				}
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
