package sparse

import "fmt"

// This file implements the matrix-free Kronecker-sum operator behind
// composed models. The joint generator of F independent CTMCs is the
// Kronecker sum Q = Q_1 ⊕ Q_2 ⊕ ... ⊕ Q_F over the product state space
// (n = Π n_f states): every stored entry of the product matrix is a
// single factor's off-diagonal rate placed at offset (j-i)·stride_f, plus
// a diagonal that is the sum of the factor diagonals. Materializing that
// CSR costs O(n · Σ m_f) memory — 50M+ entries for six 10-state factors —
// while the factors themselves cost O(Σ n_f m_f). KronSum stores only the
// factors and applies the *uniformized* product operator
//
//	A = (Q_1 ⊕ ... ⊕ Q_F)/q + I
//
// row by row, which is what lets composed models far beyond explicit
// storage run on the same sweep kernels.
//
// Bitwise contract with the materialized reference
// (ctmc.Generator.Uniformized of the composed CSR):
//
//   - Stored values: materialization scales each entry to fl(v/q·...) —
//     concretely CSR.Scaled(1/q) computes fl(invq·v) with invq = fl(1/q)
//     — and the AddDiagonal rebuild drops entries whose scaled value is
//     exactly zero. KronSum stores the identically computed fl(invq·v)
//     per factor entry and drops exact zeros at construction.
//   - Column order: within a product row, the factor-f sub-diagonal
//     entries occupy columns s-(i_f-k)·stride_f with stride_0 > stride_1
//     > ... ; since (n_f-1)·stride_f < stride_{f-1}, all of factor f's
//     sub-diagonal columns lie strictly between factor f-1's and factor
//     f+1's. Walking sub segments for f = 0..F-1 (each ascending), then
//     the diagonal, then super segments for f = F-1..0 therefore visits
//     columns in strictly ascending order — the CSR reference order.
//   - Diagonal: the composed raw diagonal is the float sum of the factor
//     diagonals folded in the shape of the composition tree (the CSR
//     builder merges duplicate (i,i) triplets in Add order), captured
//     here as a postfix fold program. The uniformized diagonal is then
//     fl(fl(dsum·invq) + 1), matching Scaled followed by AddDiagonal's
//     duplicate merge; a result of exactly zero is skipped, matching the
//     builder dropping zero sums. Factors whose diagonal is unstored
//     contribute +0.0 to the fold, which is bitwise neutral because
//     partial sums of non-positive generator diagonals never produce
//     -0.0.
//
// MatVecRange walks the product rows with an odometer over the factor
// coordinates, so a row costs O(Σ m_f(i_f)) with zero per-row index
// memory beyond the factor CSRs.

// Fold program opcodes for the Kronecker-sum diagonal (see NewKronSum).
const (
	// KronFoldPush pushes the next factor's diagonal entry (factors are
	// consumed left to right).
	KronFoldPush byte = iota
	// KronFoldAdd pops the top two partial sums x (below) and y (top) and
	// pushes x+y.
	KronFoldAdd
)

// MaxKronFactors bounds the factor count of a KronSum. Sixteen two-state
// factors already span 65,536 product states; the bound keeps the
// per-row coordinate and fold stacks in fixed-size arrays.
const MaxKronFactors = 16

// kronFactor is one factor's contribution to the product operator: the
// uniformization-scaled off-diagonal entries of its generator, split at
// the diagonal and re-indexed as product-space offsets, plus the raw
// diagonal for the fold.
type kronFactor struct {
	n      int
	stride int
	rowPtr []int     // off-diagonal entry range of row i: [rowPtr[i], rowPtr[i+1])
	split  []int     // sub-diagonal entries end (and super-diagonal start) of row i
	off    []int     // product-index offset (j-i)*stride per entry
	val    []float64 // fl(invq·raw) per entry; exact zeros dropped
	diag   []float64 // raw diagonal value of row i (+0.0 when unstored)
}

// KronSum is the matrix-free uniformized Kronecker-sum operator
// A = (Q_1 ⊕ ... ⊕ Q_F)/q + I over the row-major product state space
// (state (i_1, ..., i_F) has index ((i_1·n_2 + i_2)·n_3 + ...)·n_F + i_F,
// i.e. i*nb+j for two factors). It implements Operator.
type KronSum struct {
	n    int
	invq float64
	fs   []kronFactor
	fold []byte
	nnz  int64
}

// NewKronSum builds the uniformized Kronecker-sum operator of the given
// square factor matrices (generator matrices; their validity is the
// caller's concern) at uniformization rate q > 0.
//
// fold is the postfix program that folds the factor diagonals into the
// product diagonal: KronFoldPush consumes the next factor (left to
// right), KronFoldAdd sums the top two partial results. It encodes the
// parenthesization of the composition tree, whose shape the float64 sum
// observes; nil means the left fold ((d_1+d_2)+d_3)+..., which is what a
// left-leaning composition chain (ComposeAll) produces.
func NewKronSum(factors []*CSR, fold []byte, q float64) (*KronSum, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("%w: kron sum of no factors", ErrDimensionMismatch)
	}
	if len(factors) > MaxKronFactors {
		return nil, fmt.Errorf("%w: %d kron factors exceed the limit of %d", ErrDimensionMismatch, len(factors), MaxKronFactors)
	}
	if !(q > 0) {
		return nil, fmt.Errorf("%w: kron uniformization rate %g", ErrDimensionMismatch, q)
	}
	n := 1
	for fi, m := range factors {
		if m == nil || m.rows != m.cols || m.rows == 0 {
			return nil, fmt.Errorf("%w: kron factor %d", ErrDimensionMismatch, fi)
		}
		if m.rows > (1<<62)/n {
			return nil, fmt.Errorf("%w: kron product dimension overflow", ErrDimensionMismatch)
		}
		n *= m.rows
	}
	if fold == nil {
		fold = make([]byte, 0, 2*len(factors)-1)
		fold = append(fold, KronFoldPush)
		for i := 1; i < len(factors); i++ {
			fold = append(fold, KronFoldPush, KronFoldAdd)
		}
	} else {
		fold = append([]byte(nil), fold...)
	}
	if err := validateFold(fold, len(factors)); err != nil {
		return nil, err
	}

	k := &KronSum{n: n, invq: 1 / q, fold: fold, fs: make([]kronFactor, len(factors))}
	stride := n
	var offTotal int64
	for fi, m := range factors {
		nf := m.rows
		stride /= nf
		f := kronFactor{
			n:      nf,
			stride: stride,
			rowPtr: make([]int, nf+1),
			split:  make([]int, nf),
			diag:   make([]float64, nf),
		}
		for i := 0; i < nf; i++ {
			f.split[i] = len(f.off) // advanced past the sub-diagonal entries below
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				j := m.colIdx[p]
				if j == i {
					f.diag[i] = m.val[p]
					continue
				}
				// Scale exactly as CSR.Scaled(1/q); drop exact zeros the
				// way the AddDiagonal rebuild would.
				v := k.invq * m.val[p]
				if v == 0 {
					continue
				}
				if j < i {
					f.split[i]++
				}
				f.off = append(f.off, (j-i)*stride)
				f.val = append(f.val, v)
			}
			f.rowPtr[i+1] = len(f.off)
		}
		// Each factor entry appears once per combination of the other
		// factors' coordinates.
		offTotal += int64(len(f.val)) * int64(n/nf)
		k.fs[fi] = f
	}
	// Count the diagonal as stored in every row: it vanishes only when
	// fl(fl(dsum·invq)+1) is exactly zero, which needs q to be a power of
	// two hit exactly by a row's diagonal fold. NNZ feeds flop estimates
	// and work partitioning, where that corner is immaterial.
	k.nnz = offTotal + int64(n)
	return k, nil
}

// validateFold checks the postfix program's stack discipline.
func validateFold(fold []byte, factors int) error {
	pushes, depth := 0, 0
	for _, op := range fold {
		switch op {
		case KronFoldPush:
			pushes++
			depth++
		case KronFoldAdd:
			if depth < 2 {
				return fmt.Errorf("%w: kron fold underflow", ErrDimensionMismatch)
			}
			depth--
		default:
			return fmt.Errorf("%w: kron fold opcode %d", ErrDimensionMismatch, op)
		}
	}
	if pushes != factors || depth != 1 {
		return fmt.Errorf("%w: kron fold folds %d of %d factors to depth %d", ErrDimensionMismatch, pushes, factors, depth)
	}
	return nil
}

// Rows returns the product dimension Π n_f.
func (k *KronSum) Rows() int { return k.n }

// OpNNZ returns the effective entry count of the materialized operator
// (the diagonal counted as always present; see NewKronSum).
func (k *KronSum) OpNNZ() int64 { return k.nnz }

// OpFormat returns FormatKron.
func (k *KronSum) OpFormat() MatrixFormat { return FormatKron }

// Factors returns the factor count.
func (k *KronSum) Factors() int { return len(k.fs) }

// Dims returns the factor dimensions in order.
func (k *KronSum) Dims() []int {
	dims := make([]int, len(k.fs))
	for i := range k.fs {
		dims[i] = k.fs[i].n
	}
	return dims
}

// MemoryBytes returns the operator's storage footprint: the scaled factor
// entries, offsets and row structure — O(Σ n_f + Σ m_f), independent of
// the product dimension.
func (k *KronSum) MemoryBytes() int64 {
	var b int64
	for i := range k.fs {
		f := &k.fs[i]
		b += int64(len(f.rowPtr))*8 + int64(len(f.split))*8 +
			int64(len(f.off))*8 + int64(len(f.val))*8 + int64(len(f.diag))*8
	}
	return b + int64(len(k.fold))
}

// RowCost returns row i's entry count (off-diagonal factor entries plus
// the diagonal) for nnz-balanced partitioning.
func (k *KronSum) RowCost(i int) int64 {
	var c int64 = 1
	for fi := len(k.fs) - 1; fi >= 0; fi-- {
		f := &k.fs[fi]
		ci := i % f.n
		i /= f.n
		c += int64(f.rowPtr[ci+1] - f.rowPtr[ci])
	}
	return c
}

// partitionKron splits a Kronecker-sum sweep's product rows into
// contiguous blocks of roughly equal entry cost. It produces exactly the
// cuts partitionRows would over rowBase + RowCost(i) — same integer cut
// condition against the same exact total — but in a single odometer pass:
// the total is closed-form (each factor entry appears once per
// combination of the other factors' coordinates) and the per-row cost is
// patched incrementally as the odometer advances, so the whole partition
// is O(n + Σ n_f) instead of the O(n·F) coordinate decodes (and their F
// divisions per row) the generic RowCost path repeats.
func partitionKron(k *KronSum, workers int) []int {
	n := k.n
	total := int64(n) * int64(rowBase+1)
	for fi := range k.fs {
		f := &k.fs[fi]
		total += int64(len(f.val)) * int64(n/f.n)
	}
	blocks := make([]int, workers+1)
	blocks[workers] = n
	nf := len(k.fs)
	var cbuf [MaxKronFactors]int
	var ebuf [MaxKronFactors]int64
	coords := cbuf[:nf]
	ec := ebuf[:nf]
	rowSum := int64(rowBase + 1)
	for fi := range k.fs {
		f := &k.fs[fi]
		ec[fi] = int64(f.rowPtr[1] - f.rowPtr[0])
		rowSum += ec[fi]
	}
	b := 1
	var cum int64
	for i := 0; i < n && b < workers; i++ {
		cum += rowSum
		// Cut after row i once this block reached its share of the total
		// (the partitionRows condition, verbatim).
		for b < workers && cum*int64(workers) >= int64(b)*total {
			blocks[b] = i + 1
			b++
		}
		// Advance the odometer, patching only the factors whose coordinate
		// changed — amortized O(1) per row, since factor fi rolls over once
		// every Π_{g>fi} n_g rows.
		for fi := nf - 1; fi >= 0; fi-- {
			f := &k.fs[fi]
			c := coords[fi] + 1
			if c == f.n {
				c = 0
			}
			coords[fi] = c
			rowSum -= ec[fi]
			ec[fi] = int64(f.rowPtr[c+1] - f.rowPtr[c])
			rowSum += ec[fi]
			if c != 0 {
				break
			}
		}
	}
	for ; b < workers; b++ {
		blocks[b] = n
	}
	return blocks
}

// decode fills coords with the factor coordinates of product state s.
func (k *KronSum) decode(s int, coords []int) {
	for fi := len(k.fs) - 1; fi >= 0; fi-- {
		nf := k.fs[fi].n
		coords[fi] = s % nf
		s /= nf
	}
}

// inc advances coords to the next product state (row-major odometer).
func (k *KronSum) inc(coords []int) {
	for fi := len(k.fs) - 1; fi >= 0; fi-- {
		coords[fi]++
		if coords[fi] < k.fs[fi].n {
			return
		}
		coords[fi] = 0
	}
}

// diagValue evaluates the uniformized diagonal of the row at coords:
// fl(fl(fold(raw diagonals)·invq) + 1). stack must have capacity for the
// fold depth (MaxKronFactors suffices). A result of exactly zero means
// the materialized matrix stores no diagonal entry for this row.
func (k *KronSum) diagValue(coords []int, stack []float64) float64 {
	next, depth := 0, 0
	for _, op := range k.fold {
		if op == KronFoldPush {
			stack[depth] = k.fs[next].diag[coords[next]]
			next++
			depth++
		} else {
			depth--
			stack[depth-1] += stack[depth]
		}
	}
	// The explicit conversion pins the intermediate rounding (no fused
	// multiply-add), matching the materialized Scaled-then-AddDiagonal
	// sequence on every architecture.
	return float64(stack[0]*k.invq) + 1
}

// MatVecRange computes y[i] = (A·x)[i] for lo <= i < hi in the CSR
// reference accumulation order (ascending columns, sum from +0.0); see
// the file comment for why this is bitwise identical to the materialized
// uniformized product CSR.
func (k *KronSum) MatVecRange(lo, hi int, x, y []float64) {
	nf := len(k.fs)
	var cbuf [MaxKronFactors]int
	var sbuf [MaxKronFactors]float64
	coords := cbuf[:nf]
	stack := sbuf[:nf]
	k.decode(lo, coords)
	for s := lo; s < hi; s++ {
		var sum float64
		for fi := 0; fi < nf; fi++ {
			f := &k.fs[fi]
			c := coords[fi]
			for p := f.rowPtr[c]; p < f.split[c]; p++ {
				sum += f.val[p] * x[s+f.off[p]]
			}
		}
		if dv := k.diagValue(coords, stack); dv != 0 {
			sum += dv * x[s]
		}
		for fi := nf - 1; fi >= 0; fi-- {
			f := &k.fs[fi]
			c := coords[fi]
			for p := f.split[c]; p < f.rowPtr[c+1]; p++ {
				sum += f.val[p] * x[s+f.off[p]]
			}
		}
		y[s] = sum
		k.inc(coords)
	}
}

// fuseBlock3Kron is fuseBlock3Compact streaming the Kronecker-sum operator
// on the interleaved (unpadded) state layout: per product row it walks the
// factor sub segments in ascending factor order, the folded diagonal,
// then the super segments in descending factor order — the ascending
// column walk of the materialized CSR — with each entry gathering the
// four interleaved moment values. Operation sequence per output element
// is identical to the reference sweep over the materialized matrix.
func (s *Sweep) fuseBlock3Kron(lo, hi int, cur4, next4 []float64, active []accPair) {
	ks := s.kron
	nf := len(ks.fs)
	var cbuf [MaxKronFactors]int
	var sbuf [MaxKronFactors]float64
	coords := cbuf[:nf]
	stack := sbuf[:nf]
	ks.decode(lo, coords)
	d1, d2 := s.diag1, s.diag2
	var w float64
	var a0, a1, a2, a3 []float64
	if len(active) == 1 {
		w = active[0].w
		a0, a1, a2, a3 = active[0].acc[0], active[0].acc[1], active[0].acc[2], active[0].acc[3]
	}
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for fi := 0; fi < nf; fi++ {
			f := &ks.fs[fi]
			c := coords[fi]
			for p := f.rowPtr[c]; p < f.split[c]; p++ {
				v := f.val[p]
				c4 := (i + f.off[p]) * 4
				cv := cur4[c4 : c4+4 : c4+4]
				s3 += v * cv[3]
				s2 += v * cv[2]
				s1 += v * cv[1]
				s0 += v * cv[0]
			}
		}
		civ := cur4[i*4 : i*4+4 : i*4+4]
		if dv := ks.diagValue(coords, stack); dv != 0 {
			s3 += dv * civ[3]
			s2 += dv * civ[2]
			s1 += dv * civ[1]
			s0 += dv * civ[0]
		}
		for fi := nf - 1; fi >= 0; fi-- {
			f := &ks.fs[fi]
			c := coords[fi]
			for p := f.split[c]; p < f.rowPtr[c+1]; p++ {
				v := f.val[p]
				c4 := (i + f.off[p]) * 4
				cv := cur4[c4 : c4+4 : c4+4]
				s3 += v * cv[3]
				s2 += v * cv[2]
				s1 += v * cv[1]
				s0 += v * cv[0]
			}
		}
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
		ks.inc(coords)
	}
}
