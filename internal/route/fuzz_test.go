package route

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"tmi3d/internal/tech"
)

// FuzzRouteResultRoundTrip builds arbitrary routing results — per-net
// routes cut from raw bytes, arbitrary class lengths, overflow, congestion
// and grid geometry — and requires a decoded Result to re-encode to the
// identical bytes and compare equal to the original: the byte-identity
// contract the route stage's artifact and the flow result build on. Result
// has no non-finite codec, so a NaN or ±Inf anywhere must make the encoder
// fail loudly; such values are then zeroed and the round trip checked on
// the rest.
func FuzzRouteResultRoundTrip(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 2, 2, []byte{})
	f.Add(1234.5, 1.0, 200.25, 900.0, 133.25, 1.75, 35.0, 17, 40, 31,
		routeBytes(NetRoute{Len: 12.5, LenByClass: [NumClasses]float64{0.5, 12}, Vias: 5, Class: tech.ClassLocal},
			NetRoute{Len: 1, LenByClass: [NumClasses]float64{1}, Vias: 2, Class: tech.ClassM1}))
	f.Add(math.Copysign(0, -1), 5e-324, -1e300, math.MaxFloat64, 1e21, math.NaN(), math.Inf(1), -3, 0, -1,
		append(routeBytes(NetRoute{Len: math.Inf(-1), Vias: -7, Class: tech.ClassGlobal}), 1, 2, 3))
	f.Fuzz(func(t *testing.T, total, l0, l1, l2, l3, maxCong, pitch float64, overflow, gx, gy int, raw []byte) {
		r := &Result{
			Routes:        bytesRoutes(raw),
			TotalLen:      total,
			LenByClass:    [NumClasses]float64{l0, l1, l2, l3},
			Overflow:      overflow,
			MaxCongestion: maxCong,
			GX:            gx,
			GY:            gy,
			Pitch:         pitch,
		}
		if nonFinite(r) {
			if _, err := json.Marshal(r); err == nil {
				t.Fatal("encoding a non-finite Result succeeded")
			}
			for _, x := range floats(r) {
				if math.IsNaN(*x) || math.IsInf(*x, 0) {
					*x = 0
				}
			}
		}
		b1, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var back Result
		if err := json.Unmarshal(b1, &back); err != nil {
			t.Fatalf("decode %s: %v", b1, err)
		}
		b2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip not byte-identical:\n first %s\nsecond %s", b1, b2)
		}
		if !reflect.DeepEqual(r, &back) {
			t.Fatalf("decoded result differs:\n got %+v\nwant %+v", back, *r)
		}
	})
}

// floats lists every float field of r.
func floats(r *Result) []*float64 {
	out := []*float64{&r.TotalLen, &r.MaxCongestion, &r.Pitch}
	for c := range r.LenByClass {
		out = append(out, &r.LenByClass[c])
	}
	for i := range r.Routes {
		out = append(out, &r.Routes[i].Len)
		for c := range r.Routes[i].LenByClass {
			out = append(out, &r.Routes[i].LenByClass[c])
		}
	}
	return out
}

func nonFinite(r *Result) bool {
	for _, x := range floats(r) {
		if math.IsNaN(*x) || math.IsInf(*x, 0) {
			return true
		}
	}
	return false
}

// routeWords is the number of little-endian 64-bit words one NetRoute takes
// in the fuzzer's raw bytes: Len, four class lengths, then Vias and Class
// packed as two 32-bit halves.
const routeWords = 6

// bytesRoutes cuts raw into NetRoutes of routeWords words each, floats as
// arbitrary bit patterns; a trailing partial route is dropped.
func bytesRoutes(raw []byte) []NetRoute {
	var out []NetRoute
	for ; len(raw) >= 8*routeWords; raw = raw[8*routeWords:] {
		w := func(i int) uint64 { return binary.LittleEndian.Uint64(raw[8*i:]) }
		nr := NetRoute{Len: math.Float64frombits(w(0))}
		for c := range nr.LenByClass {
			nr.LenByClass[c] = math.Float64frombits(w(1 + c))
		}
		nr.Vias = int(int32(w(5)))
		nr.Class = tech.LayerClass(int32(w(5) >> 32))
		out = append(out, nr)
	}
	return out
}

// routeBytes is the inverse of bytesRoutes, for seeding the corpus.
func routeBytes(rs ...NetRoute) []byte {
	var out []byte
	for _, nr := range rs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(nr.Len))
		for _, l := range nr.LenByClass {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(l))
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(uint32(int32(nr.Vias)))|uint64(uint32(int32(nr.Class)))<<32)
	}
	return out
}
