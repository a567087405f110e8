package place

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// FuzzSnapshotRoundTrip builds arbitrary placements — including the empty
// one, zero-area dies and negative coordinates — and snapshots them the way
// the stage artifacts do. A snapshot rides in three artifact envelopes
// (place, opt, signoff), so decode → encode must be a byte fixed point, and
// rebinding the decoded snapshot to a design and snapshotting again must
// reproduce it exactly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "")
	f.Add(uint8(3), 1.25, 7.5, 120.5, 87.25, 1.4, 0.19, 0.8125, "out")
	f.Add(uint8(5), -3.5, 1e-9, 1e6, 3.0, 0.27, 0.054, 1.0, "a[0]")
	f.Fuzz(func(t *testing.T, n uint8, x0, dx, w, h, rowH, siteW, util float64, port string) {
		for _, v := range []float64{x0, dx, w, h, rowH, siteW, util} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("placement geometry is finite by construction")
			}
		}
		if !utf8.ValidString(port) {
			t.Skip("invalid UTF-8 cannot round-trip through encoding/json; port names are netlist identifiers")
		}
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
		b1, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var back Snapshot
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("decode %s: %v", b1, err)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("decode → encode is not a fixed point:\n first %s\nsecond %s", b1, b2)
		}
		if again := back.Restore(d).Snapshot(); !reflect.DeepEqual(snap, again) {
			t.Fatalf("Restore(d).Snapshot() differs from the snapshot:\n got %+v\nwant %+v", again, snap)
		}
	})
}
