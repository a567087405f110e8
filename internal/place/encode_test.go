package place

import (
	"math"
	"testing"

	"tmi3d/internal/geom"
)

// FuzzSnapshotEncode round-trips snapshots built from fuzzed coordinates and
// a port name: NaN and infinite coordinates, escaped and invalid-UTF-8
// names included; the shape picks nil and empty coordinate and port lists.
func FuzzSnapshotEncode(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, "", uint8(0))
	f.Add(uint8(3), 1.14, 0.19, 120.5, 1.4, 0.8125, "out", uint8(1))
	f.Add(uint8(5), -3.5, 1e-9, 1e6, math.NaN(), 1.0, `<a&"b\`, uint8(2))
	f.Add(uint8(2), 45.410000000000004, math.Inf(1), 3.0, 0.27, 0.5, "p\xe2\x80\xa8\xff", uint8(3))
	f.Fuzz(func(t *testing.T, n uint8, x0, dx, width, rowH, util float64, port string, shape uint8) {
		s := Snapshot{Die: geom.NewRect(0, 0, width, rowH), RowH: rowH, SiteW: dx, Util: util}
		for i := 0; i < int(n%16); i++ {
			s.X = append(s.X, x0+float64(i)*dx)
			s.Y = append(s.Y, float64(i)*rowH)
		}
		switch shape % 4 {
		case 1:
			s.Ports = map[string]geom.Point{port: {X: x0, Y: width}, port + "_n": {X: width, Y: dx}, "a" + port: {}}
		case 2:
			s.Ports, s.Y = map[string]geom.Point{}, []float64{}
		case 3:
			s.Ports = map[string]geom.Point{port: {X: util, Y: x0}}
			s.X = nil
		}
		roundTrip(t, s)
	})
}
