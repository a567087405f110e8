package place

import (
	"reflect"
	"testing"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// FuzzSnapshotRoundTrip builds arbitrary placements — including the empty
// one, zero-area dies, negative and non-finite coordinates and any port name
// — and snapshots them the way the stage artifacts do. A snapshot rides in
// three artifact envelopes (place, opt, signoff), so decode → encode must be
// a byte fixed point, and rebinding the decoded snapshot to a design and
// snapshotting again must reproduce it exactly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(3), 1.25, 7.5, 120.5, 87.25, 1.4, 0.19, 0.8125, "out")
	f.Add(uint8(5), -3.5, 1e-9, 1e6, 3.0, 0.27, 0.054, 1.0, "a[0]\xff")
	f.Fuzz(func(t *testing.T, n uint8, x0, dx, w, h, rowH, siteW, util float64, port string) {
		d := netlist.New("d")
		p := &Placement{Design: d, Die: geom.NewRect(0, 0, w, h), RowH: rowH, SiteW: siteW, Util: util}
		for i := 0; i < int(n%16); i++ {
			p.X = append(p.X, x0+float64(i)*dx)
			p.Y = append(p.Y, float64(i)*rowH)
		}
		if port != "" {
			p.Ports = map[string]geom.Point{port: {X: x0, Y: h}, port + "_n": {X: w, Y: dx}}
		}
		snap := p.Snapshot()
		back := roundTrip(t, snap)
		if again := back.Restore(d).Snapshot(); bits(again) != bits(snap) || !reflect.DeepEqual(again.Ports == nil, snap.Ports == nil) {
			t.Fatalf("Restore(d).Snapshot() differs from the snapshot:\n got %+v\nwant %+v", again, snap)
		}
	})
}
