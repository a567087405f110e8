// Package jsonwire writes canonical JSON — the flow result, and the gate
// reports and fanout samples inside it: compact (no whitespace), keys in a
// fixed order, strings and numbers as encoding/json formats them. A Writer
// appends those bytes to one buffer in one pass; reading them back is
// encoding/json's.
package jsonwire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends the canonical JSON encoding/json writes to one growing
// buffer. Its primitives write exactly encoding/json's bytes for the values
// they accept; a value encoding/json would refuse (a non-finite float) marks
// the writer failed instead, and a caller that finds !OK() at the end hands
// the whole value to encoding/json, which writes the same bytes or returns
// the error. Structure — braces, commas, keys — is the caller's, written
// with Raw and Byte.
type Writer struct {
	b   []byte
	bad bool
}

// NewWriter returns a writer that appends to b.
func NewWriter(b []byte) *Writer { return &Writer{b: b} }

// Reset makes w append to b, as NewWriter(b) would, so one writer serves
// many values.
func (w *Writer) Reset(b []byte) { w.b, w.bad = b, false }

// Bytes returns the bytes written so far.
func (w *Writer) Bytes() []byte { return w.b }

// OK reports whether every value written so far was one encoding/json
// writes.
func (w *Writer) OK() bool { return !w.bad }

// Fail marks the writer failed, for checks a caller makes itself.
func (w *Writer) Fail() { w.bad = true }

// Byte appends one structural byte.
func (w *Writer) Byte(c byte) { w.b = append(w.b, c) }

// Raw appends s verbatim: a key with its quotes and colon, a delimiter run,
// or a literal.
func (w *Writer) Raw(s string) { w.b = append(w.b, s...) }

// RawBytes appends p verbatim: a value another encoder wrote.
func (w *Writer) RawBytes(p []byte) { w.b = append(w.b, p...) }

// Null appends null.
func (w *Writer) Null() { w.b = append(w.b, "null"...) }

// Int appends an integer.
func (w *Writer) Int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// Bool appends true or false.
func (w *Writer) Bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// Float appends f as encoding/json writes a float64 — the shortest 'f'
// form, or 'e' outside [1e-6, 1e21) with a two-digit negative exponent
// shortened (e-09 → e-9) — or marks the writer failed if f is NaN or
// infinite.
func (w *Writer) Float(f float64) { w.b = w.appendFloat(w.b, f) }

// Floats appends a []float64 as encoding/json writes it: null for nil.
func (w *Writer) Floats(v []float64) {
	if v == nil {
		w.Null()
		return
	}
	b := append(w.b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = w.appendFloat(b, f)
	}
	w.b = append(b, ']')
}

// appendFloat appends f to b, which is w's buffer, as Float does.
func (w *Writer) appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		w.bad = true
	case isSmallInt(f):
		b = strconv.AppendInt(b, int64(f), 10)
	default:
		b = appendFraction(b, f)
	}
	return b
}

// isSmallInt reports whether f is an integer of at most 15 digits other
// than -0: its shortest 'f' form is its digits.
func isSmallInt(f float64) bool {
	i := int64(f)
	return float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f))
}

// appendFraction appends a finite f that is not a small integer as Float
// does.
func appendFraction(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// String appends s as json.Marshal writes a string (and so every
// MarshalJSON built on it): '<', '>' and '&' as \u003c, \u003e and \u0026,
// control bytes, '"' and '\\' escaped, U+2028 and U+2029 spelled \u2028 and
// \u2029, and each byte of invalid UTF-8 replaced by \ufffd.
func (w *Writer) String(s string) { w.b = appendString(w.b, s) }

// appendString appends s as Writer.String does.
func appendString(b []byte, s string) []byte {
	i := 0
	for i < len(s) && htmlSafeSet[s[i]] {
		i++
	}
	b = append(b, '"')
	if i == len(s) {
		b = append(b, s...)
		return append(b, '"')
	}
	start := 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafeSet[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

const hex = "0123456789abcdef"

// htmlSafeSet marks the bytes json.Marshal writes as themselves in a
// string: ASCII from ' ' to DEL but '"', '\\', '<', '>' and '&'. Bytes from
// 0x80 up are not: they start a UTF-8 sequence, which appendString checks.
var htmlSafeSet [256]bool

func init() {
	for c := 0x20; c <= 0x7f; c++ {
		htmlSafeSet[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
}
