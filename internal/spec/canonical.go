package spec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// hashChunk is the size of the fixed buffer Hash streams the canonical
// bytes through. It bounds Hash's allocation independently of the model
// size; small models never fill it.
const hashChunk = 4 << 10

// canonicalWriter renders the canonical serialization into buf. With a
// hash sink it forwards buf to h whenever it nears capacity, so the
// output is never held whole; without one buf grows to hold it all.
type canonicalWriter struct {
	buf []byte
	h   hash.Hash
}

// element reserves room for one list element, flushing to the hash sink
// first when the buffer is nearly full. The largest element, a
// transition with two extreme ints and a 24-byte float, is under 128
// bytes.
func (w *canonicalWriter) element() {
	if w.h != nil && len(w.buf) > cap(w.buf)-128 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *canonicalWriter) int(v int) { w.buf = strconv.AppendInt(w.buf, int64(v), 10) }

// float appends f exactly as encoding/json encodes a float64: ES6 number
// formatting, with the exponent form below 1e-6 and from 1e21 up, and
// "e-07" shortened to "e-7". Non-finite values are the encoder's
// UnsupportedValueError.
func (w *canonicalWriter) float(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && (f != 0 || !math.Signbit(f)) {
		// An integral float below 2⁵³ formats as its integer digits.
		w.buf = strconv.AppendInt(w.buf, int64(f), 10)
		return nil
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.buf = b
	return nil
}

// floats appends a float list: null for a nil slice, [] for an empty one.
func (w *canonicalWriter) floats(fs []float64) error {
	if fs == nil {
		w.buf = append(w.buf, "null"...)
		return nil
	}
	w.buf = append(w.buf, '[')
	for i, f := range fs {
		w.element()
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		if err := w.float(f); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, ']')
	return nil
}

// writeEdges appends a transition or impulse list in canonical (from, to)
// order; value names the third field.
func writeEdges[E any](w *canonicalWriter, es []E, value string, parts func(E) (int, int, float64)) error {
	order := canonicalOrder(es, parts)
	w.buf = append(w.buf, '[')
	for k := range es {
		i := k
		if order != nil {
			i = order[k]
		}
		from, to, v := parts(es[i])
		w.element()
		if k > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, `{"from":`...)
		w.int(from)
		w.buf = append(w.buf, `,"to":`...)
		w.int(to)
		w.buf = append(w.buf, value...)
		if err := w.float(v); err != nil {
			return err
		}
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ']')
	return nil
}

// canonicalOrder returns the permutation that sorts es by (from, to), or
// nil when es is already strictly increasing. The permutation comes from
// sort.Slice over an index slice with the same comparison and length the
// sorted copy of es would see, so the swaps — and therefore the relative
// order of duplicate (from, to) entries, which sort.Slice does not keep
// stable — are exactly those of sorting the copy.
func canonicalOrder[E any](es []E, parts func(E) (int, int, float64)) []int {
	less := func(a, b E) bool {
		af, at, _ := parts(a)
		bf, bt, _ := parts(b)
		if af != bf {
			return af < bf
		}
		return at < bt
	}
	sorted := true
	for k := 1; k < len(es) && sorted; k++ {
		sorted = less(es[k-1], es[k])
	}
	if sorted {
		return nil
	}
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return less(es[idx[x]], es[idx[y]]) })
	return idx
}

func transitionParts(t Transition) (int, int, float64) { return t.From, t.To, t.Rate }
func impulseParts(im Impulse) (int, int, float64)      { return im.From, im.To, im.Reward }

// write renders the canonical serialization of m: the bytes json.Marshal
// produces for the spec with transitions and impulses sorted by
// (from, to), an empty transition list written as null and an empty
// impulse list omitted.
func (w *canonicalWriter) write(m *Model) error {
	w.buf = append(w.buf, `{"states":`...)
	w.int(m.States)
	w.buf = append(w.buf, `,"transitions":`...)
	if len(m.Transitions) == 0 {
		w.buf = append(w.buf, "null"...)
	} else if err := writeEdges(w, m.Transitions, `,"rate":`, transitionParts); err != nil {
		return err
	}
	for _, f := range []struct {
		key string
		fs  []float64
	}{{`,"rates":`, m.Rates}, {`,"variances":`, m.Variances}, {`,"initial":`, m.Initial}} {
		w.buf = append(w.buf, f.key...)
		if err := w.floats(f.fs); err != nil {
			return err
		}
	}
	if len(m.Impulses) > 0 {
		w.buf = append(w.buf, `,"impulses":`...)
		if err := writeEdges(w, m.Impulses, `,"reward":`, impulseParts); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, '}')
	return nil
}

// Canonical returns a deterministic compact serialization of the spec:
// transitions and impulses are sorted by (from, to) and the JSON is
// emitted without whitespace, so two specs describing the same model in a
// different entry order serialize identically. It is the basis for
// content-addressed caching of solve results.
//
// The bytes are exactly json.Marshal's for the sorted spec, float
// formatting included, so hashes stay stable across releases. It is
// written in one pass: the lists are neither copied nor, when already
// strictly sorted, sorted.
func (m *Model) Canonical() ([]byte, error) {
	w := canonicalWriter{}
	if err := w.write(m); err != nil {
		return nil, fmt.Errorf("spec: canonical: %w", err)
	}
	return w.buf, nil
}

// Hash returns the SHA-256 digest of the canonical serialization. Two
// specs with the same hash describe the same model (up to entry order).
// The canonical bytes stream into the digest through a small fixed
// buffer and are never materialized whole.
func (m *Model) Hash() ([32]byte, error) {
	w := canonicalWriter{buf: make([]byte, 0, hashChunk), h: sha256.New()}
	if err := w.write(m); err != nil {
		return [32]byte{}, fmt.Errorf("spec: canonical: %w", err)
	}
	w.h.Write(w.buf)
	var out [32]byte
	w.h.Sum(out[:0])
	return out, nil
}
