package place

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

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

// Snapshot → JSON → Restore must be an exact inverse of the geometry, and
// re-encoding must be byte-identical (artifact IDs hang off those bytes).
func TestSnapshotRoundTrip(t *testing.T) {
	d := netlist.New("d")
	p := testPlacement(d)
	snap := p.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored := back.Restore(d)
	if !reflect.DeepEqual(p, restored) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", restored, p)
	}
	again, err := json.Marshal(restored.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding differs:\n first %s\nsecond %s", data, again)
	}
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
