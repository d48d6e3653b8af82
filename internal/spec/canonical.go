package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// hashChunk is the size of the fixed buffer Hash streams the canonical
// form through, independently of the model size; small models never fill
// it.
const hashChunk = 4 << 10

// hashTag opens the canonical form and versions it: every result-cache
// key, prepared-cache key, ring position, journal spec_hash and resume
// token derives from Hash, so a change to the form must change the tag.
// v1 was the digest of the spec's sorted json.Marshal text.
const hashTag = "somrm/spec/v2\n"

// nullList is the length word of a nil rates, variances or initial list,
// which encoding/json writes as null and an empty one as [].
const nullList = ^uint64(0)

// hasher streams the canonical form into a digest through buf; sum
// receives the digest, so it never escapes through the hash.Hash call.
type hasher struct {
	buf []byte
	h   hash.Hash
	sum [sha256.Size]byte
}

// hashers pools the chunk and SHA-256 state of Hash, so a request hashing
// several specs (a compose list) allocates neither per call.
var hashers = sync.Pool{New: func() any {
	return &hasher{buf: make([]byte, 0, hashChunk), h: sha256.New()}
}}

// reserve makes room for n more bytes, flushing a full buffer.
func (w *hasher) reserve(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// word appends one little-endian 64-bit word.
func (w *hasher) word(v uint64) {
	w.reserve(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// expBits masks a float64's exponent, all ones for ±Inf and NaN.
const expBits = 0x7ff << 52

// unsupported is the error for a non-finite value: encoding/json's
// UnsupportedValueError, as it was when the form was JSON text.
func unsupported(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// floats appends a float list behind its length, nullList for nil. The
// values go in runs that fill the buffer, one room check per run.
func (w *hasher) floats(fs []float64) error {
	if fs == nil {
		w.word(nullList)
		return nil
	}
	w.word(uint64(len(fs)))
	for len(fs) > 0 {
		w.reserve(8)
		run := fs[:min(len(fs), (cap(w.buf)-len(w.buf))/8)]
		for _, f := range run {
			bits := math.Float64bits(f)
			if bits&expBits == expBits {
				return unsupported(f)
			}
			w.buf = binary.LittleEndian.AppendUint64(w.buf, bits)
		}
		fs = fs[len(run):]
	}
	return nil
}

// edges appends a transition or impulse list behind its length, in
// canonical (from, to) order; nil and empty lists both have length 0.
func edges[E any](w *hasher, es []E, parts func(E) (int, int, float64)) error {
	w.word(uint64(len(es)))
	order := canonicalOrder(es, parts)
	for k := range es {
		i := k
		if order != nil {
			i = order[k]
		}
		from, to, v := parts(es[i])
		bits := math.Float64bits(v)
		if bits&expBits == expBits {
			return unsupported(v)
		}
		w.reserve(24)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(from))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(to))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, bits)
	}
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

// Hash returns the SHA-256 digest of the spec's canonical form: hashTag,
// then 64-bit words for the state count, the transitions sorted by
// (from, to), the rates, variances and initial distribution, and the
// impulses sorted by (from, to), every list behind its length and every
// float as its IEEE 754 bits. Two specs hash equal exactly when they
// describe the same model up to entry order — exactly when json.Marshal
// of their sorted copies is equal: -0 and 0 differ, a nil and an empty
// transition or impulse list are equal, a nil and an empty rates,
// variances or initial list differ. A NaN or ±Inf value is an error,
// the first one in canonical order reported. The form streams into the
// digest through a small fixed buffer and is never materialized whole;
// the buffer and the digest state are pooled across calls.
func (m *Model) Hash() ([32]byte, error) {
	w := hashers.Get().(*hasher)
	defer hashers.Put(w)
	w.h.Reset()
	w.buf = append(w.buf[:0], hashTag...)
	w.word(uint64(m.States))
	err := edges(w, m.Transitions, transitionParts)
	for _, fs := range [][]float64{m.Rates, m.Variances, m.Initial} {
		if err == nil {
			err = w.floats(fs)
		}
	}
	if err == nil {
		err = edges(w, m.Impulses, impulseParts)
	}
	if err != nil {
		return [32]byte{}, fmt.Errorf("spec: canonical: %w", err)
	}
	w.h.Write(w.buf)
	w.h.Sum(w.sum[:0])
	return w.sum, nil
}
