package place

import (
	"bytes"
	"math"
	"testing"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the decoder: it must neither
// panic nor allocate more than the input describes, and whatever it accepts
// must re-encode to exactly the bytes it read. The seeds are real encodings
// and damaged copies of one: truncated, extended (by a byte, by a copy), with a byte flipped, a
// varint respelled longer, ports out of order.
func FuzzSnapshotDecode(f *testing.F) {
	full := encode(&Snapshot{Die: geom.NewRect(0, 0, 120.5, 87.25), RowH: 1.4, SiteW: 0.19,
		X: []float64{1.25, math.NaN()}, Y: []float64{1.4, 2.8},
		Ports: map[string]geom.Point{"a": {X: 0, Y: 3.5}, "out": {X: 120.5, Y: 42}}, Util: 0.8125})
	real := testPlacement(netlist.New("d")).Snapshot()
	for _, b := range [][]byte{full, encode(&real), encode(&Snapshot{X: []float64{}, Ports: map[string]geom.Point{}}), encode(&Snapshot{})} {
		if _, ok := decode(b); !ok {
			f.Fatalf("encoded snapshot %q does not decode", b)
		}
		f.Add(b)
	}
	for _, n := range []int{0, 8, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	f.Add(append(bytes.Clone(full), 0))
	f.Add(append(bytes.Clone(full), full...))
	for _, i := range []int{48, len(full) - 9} {
		b := bytes.Clone(full)
		b[i] ^= 0x80
		f.Add(b)
	}
	// The two ports swapped: names out of order.
	swapped := bytes.Replace(bytes.Clone(full), []byte("\x00\x01a"), []byte("\x00\x01~"), 1)
	f.Add(swapped)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, ok := decode(b)
		if !ok {
			return
		}
		if again := encode(&s); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes, and re-encodes as %q", b, again)
		}
	})
}
