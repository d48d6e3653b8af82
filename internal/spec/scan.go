package spec

import (
	"bytes"
	"math"
	"strconv"
	"unsafe"
)

// This file is the strict single-pass decoder for the canonical spec
// shape: an object with the keys states, transitions, rates, variances,
// initial and impulses, each at most once and spelled exactly so, holding
// plain numbers, number lists and {"from","to","rate"|"reward"} objects.
// It validates JSON grammar itself, strict number syntax included, and
// produces exactly the Model encoding/json would. Anything else — an
// escaped, unknown, repeated or case-folded key, a null, a number out of
// its field's range, a grammar error — makes it decline, and the caller
// falls back to encoding/json for the value, which reports any error.

// maxDepth is encoding/json's nesting limit; deeper values are left to it.
const maxDepth = 10000

// scanner reads JSON from data starting at pos.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key reads an object key and the colon after it. Keys with escapes are
// declined: encoding/json matches them after unquoting.
func (s *scanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], s.consume(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// more reads the separator after a member or element: true with ok for a
// comma, false with ok for the closing bracket.
func (s *scanner) more(closing byte) (more, ok bool) {
	s.ws()
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ',':
			s.pos++
			return true, true
		case closing:
			s.pos++
			return false, true
		}
	}
	return false, false
}

// number scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns
// the literal. An integer literal of at most 15 digits — indexes and
// integral rates, most of the numbers in a spec — also comes back as its
// value in small, which a float64 and an int both hold exactly.
func (s *scanner) number() (lit string, small int64, isSmall, ok bool) {
	s.ws()
	d, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > start
	}
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	intStart := i
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		return "", 0, false, false
	}
	intPart := d[intStart:i]
	isSmall = len(intPart) <= 15
	if i < len(d) && d[i] == '.' {
		isSmall = false
		i++
		if !digits() {
			return "", 0, false, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		isSmall = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			return "", 0, false, false
		}
	}
	if isSmall {
		for _, c := range intPart {
			small = small*10 + int64(c-'0')
		}
		if neg {
			small = -small
		}
	}
	lit = unsafe.String(&d[s.pos], i-s.pos)
	s.pos = i
	return lit, small, isSmall, true
}

// float reads a number as encoding/json decodes it into a float64,
// declining where strconv.ParseFloat fails (out of range).
func (s *scanner) float() (float64, bool) {
	lit, small, isSmall, ok := s.number()
	switch {
	case !ok:
		return 0, false
	case isSmall:
		if small == 0 && lit[0] == '-' {
			return math.Copysign(0, -1), true
		}
		return float64(small), true
	}
	f, err := strconv.ParseFloat(lit, 64)
	return f, err == nil
}

// int reads a number as encoding/json decodes it into an int: integer
// literals in the int64 range only.
func (s *scanner) int() (int, bool) {
	lit, small, isSmall, ok := s.number()
	switch {
	case !ok:
		return 0, false
	case isSmall:
		return int(small), true
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	return int(v), err == nil
}

// list reads a JSON array, each element with elem; [] decodes to an
// empty, non-nil slice, as encoding/json decodes it.
func list[E any](s *scanner, capHint int, elem func() (E, bool)) ([]E, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := make([]E, 0, capHint)
	if s.consume(']') {
		return out, true
	}
	for {
		e, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, e)
		more, ok := s.more(']')
		if !ok {
			return nil, false
		}
		if !more {
			return out, true
		}
	}
}

// edge reads one {"from":i,"to":j,<value>:v} object, where value is
// "reward" for impulses and "rate" otherwise; missing members stay zero.
func (s *scanner) edge(reward bool) (from, to int, v float64, ok bool) {
	if !s.consume('{') {
		return 0, 0, 0, false
	}
	if s.consume('}') {
		return 0, 0, 0, true
	}
	var seen uint8
	for {
		k, ok := s.key()
		if !ok {
			return 0, 0, 0, false
		}
		var bit uint8
		switch string(k) {
		case "from":
			bit = 1
			from, ok = s.int()
		case "to":
			bit = 2
			to, ok = s.int()
		case "rate", "reward":
			if reward == (string(k) == "reward") {
				bit = 4
				v, ok = s.float()
			}
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return 0, 0, 0, false
		}
		seen |= bit
		more, ok := s.more('}')
		if !ok {
			return 0, 0, 0, false
		}
		if !more {
			return from, to, v, true
		}
	}
}

// listHint sizes the list about to be read from what it can hold: at
// most one element per separator counted up to the first ']', and at
// most one per minBytes bytes of that span. Both bounds are exact or
// generous for well-formed lists, and neither lets the rest of the input
// or a declared states count inflate the allocation.
func (s *scanner) listHint(sep byte, minBytes int) int {
	span := s.data[s.pos:]
	end := bytes.IndexByte(span, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(span[:end], []byte{sep})+1, end/minBytes+1)
}

// model reads a spec object in the canonical shape.
func (s *scanner) model() (*Model, bool) {
	m := &Model{}
	if !s.consume('{') {
		return nil, false
	}
	if s.consume('}') {
		return m, true
	}
	var seen uint8
	for {
		k, ok := s.key()
		if !ok {
			return nil, false
		}
		var bit uint8
		switch string(k) {
		case "states":
			bit = 1
			m.States, ok = s.int()
		case "transitions":
			bit = 2
			m.Transitions, ok = list(s, s.listHint('}', len(`{"from":0,"to":1,"rate":1}`)), func() (Transition, bool) {
				from, to, v, ok := s.edge(false)
				return Transition{From: from, To: to, Rate: v}, ok
			})
		case "rates":
			bit = 4
			m.Rates, ok = list(s, s.listHint(',', len("0,")), s.float)
		case "variances":
			bit = 8
			m.Variances, ok = list(s, s.listHint(',', len("0,")), s.float)
		case "initial":
			bit = 16
			m.Initial, ok = list(s, s.listHint(',', len("0,")), s.float)
		case "impulses":
			bit = 32
			m.Impulses, ok = list(s, s.listHint('}', len(`{"from":0,"to":1,"reward":1}`)), func() (Impulse, bool) {
				from, to, v, ok := s.edge(true)
				return Impulse{From: from, To: to, Reward: v}, ok
			})
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		more, ok := s.more('}')
		if !ok {
			return nil, false
		}
		if !more {
			return m, true
		}
	}
}

// skip passes over any JSON value, checking its grammar.
func (s *scanner) skip(depth int) bool {
	s.ws()
	if s.pos >= len(s.data) || depth > maxDepth {
		return false
	}
	switch c := s.data[s.pos]; c {
	case '{', '[':
		s.pos++
		closing := byte('}')
		if c == '[' {
			closing = ']'
		}
		if s.consume(closing) {
			return true
		}
		for {
			if c == '{' && !s.skipString(true) {
				return false
			}
			if !s.skip(depth + 1) {
				return false
			}
			more, ok := s.more(closing)
			if !ok || !more {
				return ok
			}
		}
	case '"':
		return s.skipString(false)
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		_, _, _, ok := s.number()
		return ok
	}
}

func (s *scanner) literal(word string) bool {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		return false
	}
	s.pos += len(word)
	return true
}

// skipString passes over a string (a key and its colon when key is set),
// checking control characters and escapes.
func (s *scanner) skipString(key bool) bool {
	if !s.consume('"') {
		return false
	}
	d := s.data
	for i := s.pos; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return !key || s.consume(':')
		case c < 0x20:
			return false
		case c == '\\':
			i++
			if i >= len(d) {
				return false
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d) {
					return false
				}
				for _, h := range d[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

// atEnd reports whether only whitespace is left.
func (s *scanner) atEnd() bool {
	s.ws()
	return s.pos == len(s.data)
}

// CutModel splits a JSON request body around its top-level spec member,
// "model" (one spec) or "compose" (a list of specs): it decodes the
// member's value with the single-pass scanner and returns a copy of body
// with that value replaced by null, so encoding/json can decode the small
// remainder of the envelope without rescanning the specs. Exactly one of
// m and compose is set. ok is false, and the caller must decode body as a
// whole, unless body is one object followed only by whitespace whose keys
// are unescaped ASCII, with exactly one key equal to "model" or "compose"
// under case folding — spelled exactly so — holding a value in the
// canonical shape, or an array of such values.
func CutModel(body []byte) (m *Model, compose []*Model, rest []byte, ok bool) {
	s := scanner{data: body}
	if !s.consume('{') || s.consume('}') {
		return nil, nil, nil, false
	}
	start, end := -1, -1
	for {
		k, ok := s.key()
		if !ok {
			return nil, nil, nil, false
		}
		for _, c := range k {
			if c >= 0x80 {
				return nil, nil, nil, false
			}
		}
		name := ""
		switch {
		case bytes.EqualFold(k, []byte("model")):
			name = "model"
		case bytes.EqualFold(k, []byte("compose")):
			name = "compose"
		}
		if name != "" {
			if string(k) != name || start >= 0 {
				return nil, nil, nil, false
			}
			s.ws()
			start = s.pos
			if name == "model" {
				m, ok = s.model()
			} else {
				compose, ok = list(&s, 0, s.model)
			}
			if !ok {
				return nil, nil, nil, false
			}
			end = s.pos
		} else if !s.skip(1) {
			return nil, nil, nil, false
		}
		more, ok := s.more('}')
		if !ok {
			return nil, nil, nil, false
		}
		if !more {
			break
		}
	}
	if start < 0 || !s.atEnd() {
		return nil, nil, nil, false
	}
	rest = make([]byte, 0, len(body)-(end-start)+len("null"))
	rest = append(append(append(rest, body[:start]...), "null"...), body[end:]...)
	return m, compose, rest, true
}
