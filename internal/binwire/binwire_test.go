package binwire

import (
	"bytes"
	"math"
	"testing"
)

// Every primitive reads back what it wrote, bit for bit, and the reader ends
// exactly at the end of the input.
func TestPrimitivesRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Int(math.MinInt64)
	w.Int(-1)
	w.Bool(true)
	w.Bool(false)
	w.Float(math.Copysign(0, -1))
	w.Float(math.Float64frombits(0x7ff8000000000001)) // a NaN with a payload
	w.Floats(nil)
	w.Floats([]float64{})
	w.Floats([]float64{math.Inf(1), 2.5})
	w.String("")
	w.String("\xff<é")
	w.Uvarint(2)
	w.Raw("\x00\x01")
	w.BlobFunc(func(b []byte) []byte { return append(b, bytes.Repeat([]byte{'x'}, 200)...) })
	w.Len(3, false)
	w.Len(0, true)
	w.Symbol("A")
	w.Symbol("B")
	w.Symbol("A")

	r := NewReader(w.Bytes())
	if r.Uvarint() != 0 || r.Uvarint() != math.MaxUint64 || r.Int() != math.MinInt64 || r.Int() != -1 {
		t.Fatal("varints do not round-trip")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("booleans do not round-trip")
	}
	if math.Float64bits(r.Float()) != math.Float64bits(math.Copysign(0, -1)) || math.Float64bits(r.Float()) != 0x7ff8000000000001 {
		t.Fatal("float bits do not round-trip")
	}
	if v := r.Floats(); v != nil {
		t.Fatalf("nil vector reads as %#v", v)
	}
	if v := r.Floats(); v == nil || len(v) != 0 {
		t.Fatalf("empty vector reads as %#v", v)
	}
	if v := r.Floats(); len(v) != 2 || !math.IsInf(v[0], 1) || v[1] != 2.5 {
		t.Fatalf("vector reads as %v", v)
	}
	if r.String() != "" || r.String() != "\xff<é" || !bytes.Equal(r.Blob(), []byte{0, 1}) ||
		!bytes.Equal(r.Blob(), bytes.Repeat([]byte{'x'}, 200)) {
		t.Fatal("strings and blobs do not round-trip")
	}
	if n, null := r.Len(1); n != 3 || null {
		t.Fatalf("length 3 reads as %d, %v", n, null)
	}
	if n, null := r.Len(1); n != 0 || !null {
		t.Fatalf("nil length reads as %d, %v", n, null)
	}
	if r.Symbol() != "A" || r.Symbol() != "B" || r.Symbol() != "A" {
		t.Fatal("symbols do not round-trip")
	}
	if !r.Done() {
		t.Fatalf("reader not done: ok %v, %d bytes left", r.OK(), r.left())
	}
}

// Bytes no writer writes fail the reader, and the failure sticks: every
// later read returns a zero value.
func TestReaderRefusesNonCanonical(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"empty input", nil, func(r *Reader) { r.Uvarint() }},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"varint spelled long", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"varint over 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"boolean 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"short float", []byte{1, 2, 3}, func(r *Reader) { r.Float() }},
		{"vector longer than the input", []byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Floats() }},
		{"huge vector", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Floats() }},
		{"string longer than the input", []byte{5, 'a'}, func(r *Reader) { _ = r.String() }},
		{"list longer than the input", []byte{9, 0}, func(r *Reader) { r.Len(1) }},
		{"undefined symbol", []byte{1}, func(r *Reader) { r.Symbol() }},
		{"symbol spelled twice", []byte{0, 1, 'A', 0, 1, 'A'}, func(r *Reader) { r.Symbol(); r.Symbol() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.in)
			c.read(r)
			if r.OK() {
				t.Fatal("the reader accepted it")
			}
			if r.Uvarint() != 0 || r.Float() != 0 || r.Bool() || r.String() != "" || r.Floats() != nil || r.Symbol() != "" {
				t.Fatal("a read after the failure returned a value")
			}
		})
	}
}
