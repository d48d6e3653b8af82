package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCheckpoint classifies every checkpoint failure: corrupt or truncated
// snapshots, version mismatches, and resume attempts against a request
// whose solver parameters do not match the captured state.
var ErrCheckpoint = errors.New("core: invalid checkpoint")

// checkpointMagic versions the binary snapshot layout. Bump the trailing
// digit on any incompatible change; decode rejects unknown versions.
const checkpointMagic = "SOMRMCK2"

// Checkpoint is a versioned snapshot of an interrupted randomization
// sweep: the moment-state vectors U^(j)(Completed), the per-time-point
// Poisson accumulations applied so far, and the solver parameters that
// identify the run. A solve resumed from a checkpoint (Options.Resume)
// replays iterations Completed+1..GMax and is bitwise identical to the
// uninterrupted solve — the per-iteration floating-point work depends
// only on the incoming state and that iteration's Poisson weights, for
// every storage format and worker count.
type Checkpoint struct {
	// Order and N are the moment order and state count of the run.
	Order, N int
	// Completed is the number of fully applied iterations: State holds
	// U^(j)(Completed) and Acc carries every accumulation of iterations
	// k <= Completed. GMax is the run's truncation point.
	Completed, GMax int
	// Q, D, Shift, Epsilon pin the uniformization of the captured run;
	// resume validates them bitwise against the recomputed values.
	Q, D, Shift, Epsilon float64
	// Times is the solve's time grid (determines the Poisson plans).
	Times []float64
	// Format and Workers record the storage format and team size of the
	// interrupted run. Informational: the bitwise contract holds across
	// formats and worker counts, so resume does not require them to match.
	Format  string
	Workers int
	// State[j][i] = U^(j)(Completed) for state i.
	State [][]float64
	// Acc[idx][j][i] is time point idx's accumulator; nil for t == 0
	// entries (which never accumulate).
	Acc [][][]float64
}

// Progress returns the fraction of sweep iterations already applied.
func (c *Checkpoint) Progress() float64 {
	if c.GMax <= 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.GMax)
}

// Encode serializes the checkpoint into a self-verifying binary blob:
// a magic/version header, the solver parameters, the raw float64 state
// (exact bit patterns, no text round-trip), and a SHA-256 trailer over
// everything preceding it.
func (c *Checkpoint) Encode() []byte {
	perVec := 8 * c.N
	size := len(checkpointMagic) + 6*4 + 4*8 + 8*len(c.Times) +
		(c.Order+1)*perVec + len(c.Times) // presence bytes
	for _, acc := range c.Acc {
		if acc != nil {
			size += (c.Order + 1) * perVec
		}
	}
	size += sha256.Size
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic...)
	for _, v := range []int{c.Order, c.N, c.Completed, c.GMax, len(c.Times), c.Workers} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range []float64{c.Q, c.D, c.Shift, c.Epsilon} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, t := range c.Times {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Format)))
	buf = append(buf, c.Format...)
	for j := 0; j <= c.Order; j++ {
		for _, v := range c.State[j] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for idx := range c.Times {
		var acc [][]float64
		if idx < len(c.Acc) {
			acc = c.Acc[idx]
		}
		if acc == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		for j := 0; j <= c.Order; j++ {
			for _, v := range acc[j] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// DecodeCheckpoint parses and verifies a blob produced by Encode. Any
// truncation, bit flip, or version mismatch yields an error wrapping
// ErrCheckpoint.
func DecodeCheckpoint(blob []byte) (*Checkpoint, error) {
	if len(blob) < len(checkpointMagic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d-byte blob too short", ErrCheckpoint, len(blob))
	}
	if string(blob[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpoint, blob[:len(checkpointMagic)])
	}
	body, trailer := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCheckpoint)
	}
	p := body[len(checkpointMagic):]
	need := func(k int) ([]byte, error) {
		if len(p) < k {
			return nil, fmt.Errorf("%w: truncated body", ErrCheckpoint)
		}
		out := p[:k]
		p = p[k:]
		return out, nil
	}
	readU32 := func() (int, error) {
		b, err := need(4)
		if err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint32(b)), nil
	}
	readF64 := func() (float64, error) {
		b, err := need(8)
		if err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	}
	c := &Checkpoint{}
	ints := []*int{&c.Order, &c.N, &c.Completed, &c.GMax}
	var nTimes int
	ints = append(ints, &nTimes, &c.Workers)
	for _, dst := range ints {
		v, err := readU32()
		if err != nil {
			return nil, err
		}
		*dst = v
	}
	const maxDim = 1 << 28 // refuse absurd allocations from corrupt headers
	if c.Order < 0 || c.Order > 64 || c.N <= 0 || c.N > maxDim || nTimes < 0 || nTimes > maxDim ||
		c.Completed < 0 || c.GMax < 0 {
		return nil, fmt.Errorf("%w: implausible header (order=%d n=%d times=%d)", ErrCheckpoint, c.Order, c.N, nTimes)
	}
	for _, dst := range []*float64{&c.Q, &c.D, &c.Shift, &c.Epsilon} {
		v, err := readF64()
		if err != nil {
			return nil, err
		}
		*dst = v
	}
	c.Times = make([]float64, nTimes)
	for i := range c.Times {
		v, err := readF64()
		if err != nil {
			return nil, err
		}
		c.Times[i] = v
	}
	fl, err := readU32()
	if err != nil {
		return nil, err
	}
	if fl < 0 || fl > 64 {
		return nil, fmt.Errorf("%w: format length %d", ErrCheckpoint, fl)
	}
	fb, err := need(fl)
	if err != nil {
		return nil, err
	}
	c.Format = string(fb)
	readVecs := func() ([][]float64, error) {
		vs := make([][]float64, c.Order+1)
		for j := range vs {
			vs[j] = make([]float64, c.N)
			for i := range vs[j] {
				v, err := readF64()
				if err != nil {
					return nil, err
				}
				vs[j][i] = v
			}
		}
		return vs, nil
	}
	if c.State, err = readVecs(); err != nil {
		return nil, err
	}
	c.Acc = make([][][]float64, nTimes)
	for idx := range c.Acc {
		pb, err := need(1)
		if err != nil {
			return nil, err
		}
		if pb[0] == 0 {
			continue
		}
		if c.Acc[idx], err = readVecs(); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpoint, len(p))
	}
	return c, nil
}

// matches validates the checkpoint against the solver parameters of the
// request attempting to resume it. Every float comparison is bitwise: a
// resume is only meaningful when it replays the exact run that was
// interrupted.
func (c *Checkpoint) matches(order, n, gMax int, q, d, shift, epsilon float64, times []float64) error {
	fail := func(what string) error {
		return fmt.Errorf("%w: %s does not match the interrupted solve", ErrCheckpoint, what)
	}
	if c.Order != order {
		return fail("moment order")
	}
	if c.N != n {
		return fail("state count")
	}
	if c.GMax != gMax {
		return fail("truncation point")
	}
	if c.Completed < 0 || c.Completed >= gMax {
		return fmt.Errorf("%w: completed %d outside sweep 1..%d", ErrCheckpoint, c.Completed, gMax)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(c.Q, q) || !same(c.D, d) || !same(c.Shift, shift) {
		return fail("uniformization")
	}
	if !same(c.Epsilon, epsilon) {
		return fail("epsilon")
	}
	if len(c.Times) != len(times) {
		return fail("time grid")
	}
	for i := range times {
		if !same(c.Times[i], times[i]) {
			return fail("time grid")
		}
	}
	if len(c.State) != order+1 {
		return fail("state vectors")
	}
	for j := range c.State {
		if len(c.State[j]) != n {
			return fail("state vectors")
		}
	}
	return nil
}

// Interrupted is returned by the solver when a context cancellation cut a
// checkpoint-enabled sweep short: it carries the captured snapshot and
// unwraps to the context's error, so callers mapping context.DeadlineExceeded
// keep working while checkpoint-aware callers can offer a resume.
type Interrupted struct {
	// Checkpoint is the snapshot captured at the interruption barrier.
	Checkpoint *Checkpoint
	// Err is the context error that stopped the sweep.
	Err error
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("core: solve interrupted after %d/%d iterations: %v",
		e.Checkpoint.Completed, e.Checkpoint.GMax, e.Err)
}

func (e *Interrupted) Unwrap() error { return e.Err }
