// Package jsonwire reads the canonical JSON the stage artifact encoders
// write: compact (no whitespace), keys in a fixed order, strings of plain
// printable ASCII and numbers as encoding/json formats them. A Reader is a
// cursor over such bytes with strict primitives; it guesses nothing, and the
// first byte that does not match what a primitive expects marks the reader
// failed. Every later call is then a no-op, so a decoder reads a whole value
// and checks OK (or Done) once. A failed read means "not canonical", never
// "invalid": callers fall back to encoding/json, which decides.
package jsonwire

import (
	"bytes"
	"math"
	"strconv"
)

// Reader is a cursor over canonical JSON bytes.
type Reader struct {
	b   []byte
	i   int
	bad bool
}

// NewReader returns a reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// OK reports whether every read so far matched.
func (r *Reader) OK() bool { return !r.bad }

// Done reports whether every read matched and the input is used up.
func (r *Reader) Done() bool { return !r.bad && r.i == len(r.b) }

// Fail marks the reader failed, for checks a caller makes itself.
func (r *Reader) Fail() { r.bad = true }

// Peek returns the next byte, or 0 at the end of the input or after a
// failure.
func (r *Reader) Peek() byte {
	if r.bad || r.i >= len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// Delim consumes the byte c ('{', '}', '[', ']', ',' or ':').
func (r *Reader) Delim(c byte) {
	if r.Peek() != c || c == 0 {
		r.bad = true
		return
	}
	r.i++
}

// Key consumes the object key k and its colon: "k":.
func (r *Reader) Key(k string) {
	n := len(k) + 3
	if r.bad || len(r.b)-r.i < n || r.b[r.i] != '"' || string(r.b[r.i+1:r.i+n-2]) != k ||
		r.b[r.i+n-2] != '"' || r.b[r.i+n-1] != ':' {
		r.bad = true
		return
	}
	r.i += n
}

// Field consumes the key k of an object's n-th field, with the comma before
// it when n > 0, and reports whether it did. Unlike Key it leaves the reader
// as it was when the next bytes are not that key, so a caller can pass over
// a field its encoder omits.
func (r *Reader) Field(k string, n int) bool {
	if r.bad {
		return false
	}
	i := r.i
	if n > 0 {
		r.Delim(',')
	}
	r.Key(k)
	if r.bad {
		r.i, r.bad = i, false
		return false
	}
	return true
}

// More reports whether the array or object being read has another element,
// given that n elements were read before it: it consumes the comma in front
// of every element but the first, and the closing delimiter close after the
// last. The idiom is
//
//	r.Delim('[')
//	for n := 0; r.More(']', n); n++ { ... }
func (r *Reader) More(close byte, n int) bool {
	switch c := r.Peek(); {
	case c == close && c != 0:
		r.i++
		return false
	case n > 0:
		r.Delim(',')
	}
	return !r.bad
}

// Null consumes a null if one is next and reports whether it did.
func (r *Reader) Null() bool {
	if r.bad || !bytes.HasPrefix(r.b[r.i:], []byte("null")) {
		return false
	}
	r.i += 4
	return true
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	rest := r.b[r.i:]
	switch {
	case r.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		r.i += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		r.i += 5
		return false
	}
	r.bad = true
	return false
}

// Int reads an integer in shortest form, as strconv.AppendInt writes it: no
// plus sign, no leading zero, no -0, no fraction or exponent, and at most 18
// digits, so it cannot overflow an int64; the value must also fit an int.
func (r *Reader) Int() int {
	if r.bad {
		return 0
	}
	i := r.i
	neg := i < len(r.b) && r.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(r.b) && r.b[i] >= '0' && r.b[i] <= '9' {
		v = v*10 + int64(r.b[i]-'0')
		i++
		if i-start > 18 {
			r.bad = true
			return 0
		}
	}
	if neg {
		v = -v
	}
	switch {
	case i == start, r.b[start] == '0' && (i-start > 1 || neg), i < len(r.b) && isNumberTail(r.b[i]),
		v < math.MinInt, v > math.MaxInt:
		r.bad = true
		return 0
	}
	r.i = i
	return int(v)
}

// isNumberTail reports whether c would continue a JSON number past its
// integer digits.
func isNumberTail(c byte) bool { return c == '.' || c == 'e' || c == 'E' }

// Float reads a JSON number and converts it as encoding/json converts a
// number into a float64: strconv.ParseFloat(s, 64), which fails on a number
// out of range (1e400).
func (r *Reader) Float() float64 {
	if r.bad {
		return 0
	}
	end := numberEnd(r.b, r.i)
	if end < 0 {
		r.bad = true
		return 0
	}
	if v, ok := smallInt(r.b[r.i:end]); ok {
		r.i = end
		return v
	}
	v, err := strconv.ParseFloat(string(r.b[r.i:end]), 64)
	if err != nil {
		r.bad = true
		return 0
	}
	r.i = end
	return v
}

// smallInt converts a number spelled as an integer of at most 15 digits
// other than -0. ParseFloat returns such a number as the exact float64 of
// its integer value, as this does, only faster.
func smallInt(b []byte) (float64, bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) > 15 || (neg && b[0] == '0') {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return float64(v), true
}

// numberEnd returns the end of the JSON number that starts at b[i], or -1 if
// none does: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func numberEnd(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// Floats reads an array of numbers; null reads as nil, [] as an empty
// non-nil slice.
func (r *Reader) Floats() []float64 {
	if r.Null() {
		return nil
	}
	r.Delim('[')
	out := make([]float64, 0, r.FlatLen())
	for k := 0; r.More(']', k); k++ {
		out = append(out, r.Float())
	}
	return out
}

// FlatLen returns the length of the array just opened, counted as one more
// than its commas before the first ']': exact for an array of numbers, and
// only a capacity hint for anything else.
func (r *Reader) FlatLen() int {
	if r.bad {
		return 0
	}
	end := bytes.IndexByte(r.b[r.i:], ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(r.b[r.i:r.i+end], []byte{','}) + 1
}

// Str reads a plain string — printable ASCII other than '"', '\\', '<', '>'
// and '&', which encoding/json writes as its bytes between quotes — and
// returns its bytes, which alias the input.
func (r *Reader) Str() []byte {
	if r.bad || r.i >= len(r.b) || r.b[r.i] != '"' {
		r.bad = true
		return nil
	}
	start := r.i + 1
	i := start
	for i < len(r.b) && Plain(r.b[i]) {
		i++
	}
	if i >= len(r.b) || r.b[i] != '"' {
		r.bad = true
		return nil
	}
	r.i = i + 1
	return r.b[start:i]
}

// Plain reports whether encoding/json writes c unescaped in a string: c is
// printable ASCII and not '"', '\\' or, for HTML, '<', '>' or '&'.
func Plain(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Skip consumes one value and returns its bytes. It finds the value's extent
// only — matching brackets outside strings, and stepping over escapes inside
// them — and does not validate what lies inside: the caller hands the bytes
// to a strict decoder or to encoding/json.
func (r *Reader) Skip() []byte {
	end := -1
	if !r.bad && r.i < len(r.b) {
		end = valueEnd(r.b, r.i)
	}
	if end < 0 {
		r.bad = true
		return nil
	}
	v := r.b[r.i:end]
	r.i = end
	return v
}

// valueEnd returns the end of the value that starts at b[i], or -1.
func valueEnd(b []byte, i int) int {
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				if i = stringEnd(b, i); i < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			// Step over the bytes that change nothing here.
			for i++; i < len(b) && !structural[b[i]]; i++ {
			}
		}
		return -1
	}
	start := i
	for i < len(b) && !endsScalar[b[i]] {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// structural marks the bytes valueEnd tracks inside an array or object;
// endsScalar the bytes a number or literal runs up to.
var structural, endsScalar [256]bool

func init() {
	for _, c := range []byte(`"{}[]`) {
		structural[c] = true
		endsScalar[c] = true
	}
	for _, c := range []byte(",: \t\n\r") {
		endsScalar[c] = true
	}
}

// stringEnd returns the end of the string whose opening quote is b[i], or -1.
func stringEnd(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}
