package netlist

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDesignDecode feeds arbitrary bytes to the decoder: it must neither
// panic nor allocate more than the input describes, and whatever it accepts
// must re-encode to exactly the bytes it read — one encoding per design.
// The seeds are real encodings (with nil and empty lists, a floating net, an
// empty pin list, odd names and a NaN clock) and damaged copies of one: truncated, extended, with a
// byte flipped, a varint respelled longer, a count raised.
func FuzzDesignDecode(f *testing.F) {
	d := testDesign()
	d.AddNet("floating")
	d.Instances[1].Pins = Pins{}
	canonical := encode(d)
	odd := &Design{Name: "\xff<", TargetClockPs: math.NaN(), ClockNet: math.MinInt64, PIs: map[string]int{"\x00": -1, "é": 1}}
	for _, b := range [][]byte{canonical, encode(&Design{Name: "e", Instances: []Instance{}, Nets: []Net{}}), encode(&Design{Name: "n"}), encode(odd)} {
		if _, ok := decode(b); !ok {
			f.Fatalf("encoded design %q does not decode", b)
		}
		f.Add(b)
	}
	for _, n := range []int{0, 1, 2, len(canonical) / 3, len(canonical) / 2, len(canonical) - 1} {
		f.Add(canonical[:n])
	}
	f.Add(append(bytes.Clone(canonical), 0))
	for _, i := range []int{0, 1, 7, 8, 9, 10, len(canonical) / 2, len(canonical) - 9} {
		b := bytes.Clone(canonical)
		b[i] ^= 0x41
		f.Add(b)
	}
	// The design name's length respelled as a two-byte varint.
	f.Add(append([]byte{canonical[0] | 0x80, 0}, canonical[1:]...))
	// A pin count far beyond the input.
	f.Add(append([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, canonical...))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, ok := decode(b)
		if !ok {
			return
		}
		if again := encode(d); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes, and re-encodes as %q", b, again)
		}
	})
}
