// Package binwire writes and reads the stage store's binary artifact form:
// little-endian and deterministic, with one encoding per value, so equal
// values encode to equal bytes and a decoded value re-encodes to the bytes
// it came from.
//
// The primitives are unsigned and zigzag varints (shortest form only),
// float64 bit patterns (NaN payloads, −0 and ±Inf travel as they are),
// booleans as one byte, and length-prefixed strings, byte blobs and float
// vectors. A list length is written as n+1, with 0 for a nil list, where a
// type tells nil from empty. Symbols are strings a value repeats (pin,
// function, cell and port names, lint rules and messages): a writer spells each one once, at its
// first use, and refers back to it by number afterwards.
//
// A Reader fails sticky: the first read that does not match — a truncated
// value, a varint in a longer form than the shortest, a boolean byte other
// than 0 or 1, a length larger than the bytes left, a symbol spelled twice —
// marks it failed, every later read returns a zero value, and the caller
// checks Done (or OK) once. A length is checked against the bytes left
// before anything is allocated for it, so arbitrary input can neither panic
// a reader nor make it allocate more than the input could describe.
package binwire

import (
	"encoding/binary"
	"math"
)

// Writer appends the binary form to one growing buffer.
type Writer struct {
	b       []byte
	syms    map[string]int
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter returns a writer that appends to b.
func NewWriter(b []byte) *Writer { return &Writer{b: b} }

// Bytes returns the bytes written so far.
func (w *Writer) Bytes() []byte { return w.b }

// reserve makes room for n more bytes, doubling the buffer when it grows so
// a large artifact is copied a few times, not once per append growth step.
func (w *Writer) reserve(n int) {
	if cap(w.b)-len(w.b) >= n {
		return
	}
	b := make([]byte, len(w.b), 2*cap(w.b)+n)
	copy(b, w.b)
	w.b = b
}

// Uvarint appends x as an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.reserve(binary.MaxVarintLen64)
	w.b = binary.AppendUvarint(w.b, x)
}

// Int appends v as a zigzag varint.
func (w *Writer) Int(v int) {
	w.reserve(binary.MaxVarintLen64)
	w.b = binary.AppendVarint(w.b, int64(v))
}

// Bool appends v as one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	var c byte
	if v {
		c = 1
	}
	w.reserve(1)
	w.b = append(w.b, c)
}

// Float appends the bit pattern of x, little-endian.
func (w *Writer) Float(x float64) {
	w.reserve(8)
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
}

// Len appends a list length: n+1, or 0 for a nil list.
func (w *Writer) Len(n int, null bool) {
	if null {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(n) + 1)
}

// Floats appends a float vector: its length (nil apart from empty), then
// each element's bits.
func (w *Writer) Floats(v []float64) {
	w.Len(len(v), v == nil)
	w.reserve(8 * len(v))
	for _, x := range v {
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
	}
}

// String appends s: its length, then its bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.reserve(len(s))
	w.b = append(w.b, s...)
}

// Raw appends s's bytes alone: the caller has written their length.
func (w *Writer) Raw(s string) {
	w.reserve(len(s))
	w.b = append(w.b, s...)
}

// BlobFunc appends the blob fill appends to the buffer it is given, and
// puts the blob's length before it: a blob written in place, without a
// buffer of its own.
func (w *Writer) BlobFunc(fill func(b []byte) []byte) {
	start := len(w.b)
	b := fill(w.b)
	n := len(b) - start
	k := len(binary.AppendUvarint(w.scratch[:0], uint64(n)))
	b = append(b, w.scratch[:k]...)
	copy(b[start+k:], b[start:start+n])
	binary.PutUvarint(b[start:], uint64(n))
	w.b = b
}

// Symbol appends s as a symbol: 0 and its spelling the first time this
// writer writes it, its number (1 for the first symbol spelled) after that.
func (w *Writer) Symbol(s string) {
	if k, ok := w.syms[s]; ok {
		w.Uvarint(uint64(k))
		return
	}
	if w.syms == nil {
		w.syms = make(map[string]int, 256)
	}
	w.syms[s] = len(w.syms) + 1
	w.Uvarint(0)
	w.String(s)
}

// Reader is a cursor over binary bytes.
type Reader struct {
	b    []byte
	i    int
	bad  bool
	syms []string
}

// NewReader returns a reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// OK reports whether every read so far matched.
func (r *Reader) OK() bool { return !r.bad }

// Done reports whether every read matched and the input is used up.
func (r *Reader) Done() bool { return !r.bad && r.i == len(r.b) }

// Fail marks the reader failed, for checks a caller makes itself.
func (r *Reader) Fail() { r.bad = true }

// left returns the number of bytes not yet read.
func (r *Reader) left() int { return len(r.b) - r.i }

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.i:])
	// n ≤ 0: truncated or over 64 bits. A last byte of 0 after the first
	// is a longer spelling of a shorter varint.
	if n <= 0 || (n > 1 && r.b[r.i+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.i += n
	return x
}

// Int reads a zigzag varint in its shortest form.
func (r *Reader) Int() int {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		r.bad = true
		return 0
	}
	return int(v)
}

// Bool reads one byte, 0 or 1.
func (r *Reader) Bool() bool {
	if r.bad || r.i >= len(r.b) || r.b[r.i] > 1 {
		r.bad = true
		return false
	}
	r.i++
	return r.b[r.i-1] == 1
}

// Float reads one float64 bit pattern.
func (r *Reader) Float() float64 {
	if r.bad || len(r.b)-r.i < 8 {
		r.bad = true
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return x
}

// Len reads a list length written by Writer.Len, for a list whose elements
// take at least min bytes each (min ≥ 1): a length the bytes left cannot
// hold fails the reader.
func (r *Reader) Len(min int) (n int, null bool) {
	u := r.Uvarint()
	if u == 0 {
		return 0, !r.bad
	}
	return r.Count(u-1, min), false
}

// Count checks a count read by the caller against the bytes left, for
// elements of at least min bytes (min ≥ 1), and returns it as an int; a
// count the bytes left cannot hold fails the reader and returns 0.
func (r *Reader) Count(u uint64, min int) int {
	if r.bad || u > uint64(r.left()/min) {
		r.bad = true
		return 0
	}
	return int(u)
}

// Floats reads a float vector written by Writer.Floats.
func (r *Reader) Floats() []float64 {
	n, null := r.Len(8)
	if null || r.bad {
		return nil
	}
	v := make([]float64, n)
	b := r.b[r.i : r.i+8*n]
	for k := range v {
		v[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
	r.i += 8 * n
	return v
}

// Blob reads a length-prefixed byte string. The bytes are the input's own:
// a caller that keeps them copies them.
func (r *Reader) Blob() []byte {
	n := r.Count(r.Uvarint(), 1)
	if r.bad {
		return nil
	}
	b := r.b[r.i : r.i+n : r.i+n]
	r.i += n
	return b
}

// String reads a length-prefixed string into a string of its own.
func (r *Reader) String() string { return string(r.Blob()) }

// Symbol reads a symbol written by Writer.Symbol. A symbol spelled a second
// time, which a writer never does, fails the reader.
func (r *Reader) Symbol() string {
	k := r.Uvarint()
	if r.bad {
		return ""
	}
	if k > 0 {
		if k > uint64(len(r.syms)) {
			r.bad = true
			return ""
		}
		return r.syms[k-1]
	}
	b := r.Blob()
	for _, s := range r.syms {
		if s == string(b) {
			r.bad = true
			return ""
		}
	}
	s := string(b)
	r.syms = append(r.syms, s)
	return s
}
