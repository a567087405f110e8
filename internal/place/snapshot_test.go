package place

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tmi3d/internal/binwire"
	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

func testPlacement(d *netlist.Design) *Placement {
	return &Placement{
		Design: d,
		Die:    geom.NewRect(0, 0, 120.5, 87.25),
		RowH:   1.4,
		SiteW:  0.19,
		X:      []float64{1.25, 7.5, 33.125},
		Y:      []float64{1.4, 2.8, 4.2},
		Ports:  map[string]geom.Point{"a": {X: 0, Y: 3.5}, "out": {X: 120.5, Y: 42}},
		Util:   0.8125,
	}
}

// encode returns s's binary form.
func encode(s *Snapshot) []byte {
	w := binwire.NewWriter(nil)
	s.WriteBinary(w)
	return w.Bytes()
}

// decode reads a snapshot from b, reporting false for bytes ReadBinary
// refuses or leaves unread.
func decode(b []byte) (Snapshot, bool) {
	r := binwire.NewReader(b)
	var s Snapshot
	s.ReadBinary(r)
	return s, r.Done()
}

// bits spells a snapshot with every float as its bit pattern, so snapshots
// holding NaN compare equal when their bits are.
func bits(s Snapshot) string {
	fs := func(v []float64) string {
		if v == nil {
			return "nil"
		}
		out := "["
		for _, x := range v {
			out += fmt.Sprintf("%x ", math.Float64bits(x))
		}
		return out + "]"
	}
	pt := func(p geom.Point) string { return fs([]float64{p.X, p.Y}) }
	out := pt(s.Die.Lo) + pt(s.Die.Hi) + fs([]float64{s.RowH, s.SiteW, s.Util}) + fs(s.X) + fs(s.Y)
	if s.Ports == nil {
		return out + "nil"
	}
	names := make([]string, 0, len(s.Ports))
	for name := range s.Ports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out += fmt.Sprintf("%q:%s", name, pt(s.Ports[name]))
	}
	return out + "{}"
}

// roundTrip encodes s and requires the decode to hold every value bit for
// bit, nil and empty lists and maps told apart, and to re-encode to the same
// bytes.
func roundTrip(t *testing.T, s Snapshot) Snapshot {
	t.Helper()
	data := encode(&s)
	back, ok := decode(data)
	if !ok {
		t.Fatalf("%d bytes of a snapshot do not decode", len(data))
	}
	if bits(back) != bits(s) {
		t.Fatalf("round trip not exact:\n got %s\nwant %s", bits(back), bits(s))
	}
	if again := encode(&back); !bytes.Equal(again, data) {
		t.Fatal("the decoded snapshot re-encodes differently")
	}
	return back
}

// Snapshot → binary → Restore must be an exact inverse of the geometry, and
// re-encoding must be byte-identical.
func TestSnapshotRoundTrip(t *testing.T) {
	d := netlist.New("d")
	p := testPlacement(d)
	restored := roundTrip(t, p.Snapshot()).Restore(d)
	if !reflect.DeepEqual(p, restored) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", restored, p)
	}
	roundTrip(t, Snapshot{X: []float64{}, Ports: map[string]geom.Point{}, RowH: math.NaN(), SiteW: math.Copysign(0, -1)})
	roundTrip(t, Snapshot{})
}

// Snapshots, and placements restored from them for another design, are
// isolated from later mutation of the original — the cached-artifact
// immutability the staged engine relies on when optimization appends buffer
// coordinates to a consumed placement.
func TestSnapshotAndCloneForIsolation(t *testing.T) {
	d := netlist.New("d")
	p := testPlacement(d)
	snap := p.Snapshot()
	d2 := netlist.New("d2")
	clone := p.Snapshot().Restore(d2)
	if clone.Design != d2 {
		t.Fatal("Restore did not rebind the design")
	}
	p.X = append(p.X, 99)
	p.Y = append(p.Y, 99)
	p.X[0] = -5
	p.Ports["a"] = geom.Point{X: 1, Y: 1}
	if len(snap.X) != 3 || snap.X[0] != 1.25 || snap.Ports["a"].X != 0 {
		t.Fatal("snapshot shares state with the placement")
	}
	if len(clone.X) != 3 || clone.X[0] != 1.25 || clone.Ports["a"].X != 0 {
		t.Fatal("clone shares state with the placement")
	}
}
