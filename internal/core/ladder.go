package core

import "sync"

// A Prepared's state ladder: immutable snapshots of the sweep state
// U^(j)(k) at a few iterations k, which warm solves resume from instead
// of sweeping again from k = 0. The vectors U^(j)(k) of Theorem 3 depend
// only on the model, not on t, and a left-truncated solve (see
// leftPoint) accumulates nothing below its plans' first iteration, so a
// solve starting from the largest snapshot at or below that iteration
// performs exactly the floating-point work of the fresh sweep from there
// on: its bits depend only on (model, t, order, ε), never on what the
// ladder holds. U^(j)(k) does not depend on the sweep's moment order
// either, so a snapshot serves every order up to its own.
//
// Memory rule: a ladder holds at most ladderWords(N) = 16·N float64
// words (128 bytes per state — four order-3 snapshots, one at order 12,
// none above order 15), its snapshots at least ladderGap iterations from
// each other and from 0. Only a model's second and later solves capture,
// so a model solved once (cold traffic) allocates nothing for it. The
// ladder only grows: snapshots are never replaced, and each is written
// once, before it is published.
type ladder struct {
	mu     sync.Mutex
	solves int    // solves started against the Prepared
	words  int    // float64 words the rungs hold
	rungs  []rung // ascending k
}

// rung is one snapshot: state[j] = U^(j)(k) for j = 0..len(state)-1.
type rung struct {
	k     int
	state [][]float64
}

// ladderGap is the minimum distance, in iterations, between two rungs
// and between a rung and iteration 0: a closer snapshot saves any solve
// at most that many iterations over its neighbour, for the same memory
// as any other.
const ladderGap = 48

// ladderWords is the ladder's memory budget for an n-state model. On the
// 2,001-state model at a distinct t per order-3 solve, four snapshots
// started the sweep at iteration 225 on average and six at 245, for the
// same solve time, while the four snapshots' 256 KB of live heap already
// raised the served model's peak RSS by 0.8 MB (BENCHMARKS.md).
func ladderWords(n int) int { return 16 * n }

// ladderUse is how one solve uses the ladder.
type ladderUse struct {
	from      rung // the snapshot to resume from; no state starts at k = 0
	consulted bool // the solve could skip ladderGap iterations or more
	capture   bool // capture a snapshot at start
	start     int  // the solve's start (see plan)
}

// plan records one solve against the ladder and returns how it uses it.
// start is the solve's last iteration that accumulates nothing (its
// plans' smallest first iteration minus one). A warm solve whose start is
// at least ladderGap consults the ladder: it resumes from the largest
// rung at or below start that holds order+1 vectors, and captures a rung
// at start when that keeps every rung ladderGap apart and fits the
// budget.
func (l *ladder) plan(start, order, n int) ladderUse {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.solves++
	if l.solves == 1 || start < ladderGap {
		return ladderUse{}
	}
	use := ladderUse{consulted: true, start: start}
	below, above := 0, -1
	for i := range l.rungs {
		r := &l.rungs[i]
		if r.k > start {
			above = r.k
			break
		}
		below = r.k
		if len(r.state) > order {
			use.from = *r
		}
	}
	use.capture = start-below >= ladderGap && (above < 0 || above-start >= ladderGap) &&
		l.words+(order+1)*n <= ladderWords(n)
	return use
}

// add publishes a captured snapshot at k unless a rung landed within
// ladderGap of it, or the budget filled, since plan approved it. It
// reports whether the snapshot was kept.
func (l *ladder) add(k int, state [][]float64, n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	words := len(state) * n
	if l.words+words > ladderWords(n) {
		return false
	}
	at := len(l.rungs)
	for i, r := range l.rungs {
		if r.k > k-ladderGap && r.k < k+ladderGap {
			return false
		}
		if r.k > k && at == len(l.rungs) {
			at = i
		}
	}
	l.rungs = append(l.rungs, rung{})
	copy(l.rungs[at+1:], l.rungs[at:])
	l.rungs[at] = rung{k: k, state: state}
	l.words += words
	return true
}
