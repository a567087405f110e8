package route

import (
	"math"
	"testing"

	"tmi3d/internal/tech"
)

// FuzzResultEncode round-trips results whose routes are cut from raw bytes
// as in FuzzRouteResultRoundTrip; the shape picks nil, empty and repeated
// route lists.
func FuzzResultEncode(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0, 2, uint8(0), []byte{})
	f.Add(1234.5, 1.75, 35.0, 17, 40, uint8(1),
		routeBytes(NetRoute{Len: 12.5, LenByClass: [NumClasses]float64{12.5, 0}, Vias: 5, Class: tech.ClassLocal},
			NetRoute{Len: 1.5599999999999998, LenByClass: [NumClasses]float64{0, 1.5599999999999998}, Vias: 2, Class: tech.ClassM1}))
	f.Add(math.Copysign(0, -1), math.NaN(), math.Inf(1), -3, -1, uint8(2),
		routeBytes(NetRoute{Len: math.Inf(-1), Vias: -7, Class: tech.ClassGlobal}))
	f.Fuzz(func(t *testing.T, total, maxCong, pitch float64, overflow, gx int, shape uint8, raw []byte) {
		r := &Result{TotalLen: total, LenByClass: [NumClasses]float64{total, maxCong}, Overflow: overflow,
			MaxCongestion: maxCong, GX: gx, GY: -gx, Pitch: pitch, Routes: bytesRoutes(raw)}
		switch shape % 3 {
		case 1:
			r.Routes = nil
		case 2:
			if r.Routes == nil {
				r.Routes = []NetRoute{}
			}
			r.Routes = append(r.Routes, r.Routes...)
		}
		roundTrip(t, r)
	})
}
