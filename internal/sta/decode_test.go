package sta

import (
	"bytes"
	"math"
	"testing"
)

// FuzzResultDecode feeds arbitrary bytes to the decoder: it must neither
// panic nor allocate more than the input describes, and whatever it accepts
// must re-encode to exactly the bytes it read. The seeds are real encodings
// and damaged copies of one: truncated, extended, with a byte flipped, a
// varint respelled longer, a vector length raised past the input.
func FuzzResultDecode(f *testing.F) {
	full := encode(&Result{
		Arrival:  []float64{math.Inf(-1), 12.5, math.NaN(), 0, -0.25},
		Slew:     []float64{4.25, math.Inf(1)},
		Required: []float64{},
		WNS:      math.Inf(1), TNS: -3.5, HoldWNS: math.NaN(),
		CriticalNet: 7, ClockPs: 850,
	})
	for _, b := range [][]byte{full, encode(&Result{})} {
		if _, ok := decode(b); !ok {
			f.Fatalf("encoded result %q does not decode", b)
		}
		f.Add(b)
	}
	for _, n := range []int{0, 1, 9, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add(append(bytes.Clone(full), 0))
	for _, i := range []int{0, 1, 42, len(full) - 9} {
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
