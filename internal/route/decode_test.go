package route

import (
	"bytes"
	"math"
	"testing"

	"tmi3d/internal/tech"
)

// FuzzResultDecode feeds arbitrary bytes to the decoder: it must neither
// panic nor allocate more than the input describes, and whatever it accepts
// must re-encode to exactly the bytes it read. The seeds are real encodings
// and damaged copies of one — truncated, extended, with a byte flipped, a
// varint respelled longer, a route count raised past the input — and the
// committed corpus carries an old JSON fragment, which must not decode as
// anything.
func FuzzResultDecode(f *testing.F) {
	full := encode(&Result{
		Routes: []NetRoute{
			{Len: 12.5, LenByClass: [NumClasses]float64{0.5, 12}, Vias: 5, Class: tech.ClassLocal},
			{Len: 1.5599999999999998, LenByClass: [NumClasses]float64{1.5599999999999998, math.NaN()}, Vias: 2},
		},
		TotalLen: 14.06, LenByClass: [NumClasses]float64{2.06, 12}, Overflow: 3, MaxCongestion: 1.25,
		GX: 40, GY: 31, Pitch: 5.6,
	})
	for _, b := range [][]byte{full, encode(&Result{Routes: []NetRoute{}}), encode(&Result{})} {
		if _, ok := decode(b); !ok {
			f.Fatalf("encoded result %q does not decode", b)
		}
		f.Add(b)
	}
	for _, n := range []int{0, 1, 41, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add(append(bytes.Clone(full), 0))
	f.Add(append(bytes.Clone(full), full...))
	for _, i := range []int{0, 41, len(full) - 9} {
		b := bytes.Clone(full)
		b[i] ^= 0x80
		f.Add(b)
	}
	f.Add(append([]byte{full[0] | 0x80, 0}, full[1:]...))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, full[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, ok := decode(b)
		if !ok {
			return
		}
		if again := encode(r); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes, and re-encodes as %q", b, again)
		}
	})
}
