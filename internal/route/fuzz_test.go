package route

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"tmi3d/internal/binwire"
	"tmi3d/internal/tech"
)

// encode returns r's binary form.
func encode(r *Result) []byte {
	w := binwire.NewWriter(nil)
	r.WriteBinary(w)
	return w.Bytes()
}

// decode reads a result from b, reporting false for bytes ReadBinary
// refuses or leaves unread.
func decode(b []byte) (*Result, bool) {
	rd := binwire.NewReader(b)
	r := new(Result)
	r.ReadBinary(rd)
	return r, rd.Done()
}

// roundTrip encodes r and requires the decode to hold every value bit for
// bit (NaN payloads, −0 and ±Inf included, nil and empty route lists told
// apart) and to re-encode to the same bytes.
func roundTrip(t *testing.T, r *Result) {
	t.Helper()
	data := encode(r)
	back, ok := decode(data)
	if !ok {
		t.Fatalf("%d bytes of a result do not decode", len(data))
	}
	if again := encode(back); !bytes.Equal(again, data) {
		t.Fatal("the decoded result re-encodes differently")
	}
	want, got := *r, *back
	wf, gf := floats(&want), floats(&got)
	if len(wf) != len(gf) || (want.Routes == nil) != (got.Routes == nil) {
		t.Fatalf("decoded result differs:\n got %+v\nwant %+v", got, want)
	}
	want.Routes = append([]NetRoute(nil), want.Routes...)
	got.Routes = append([]NetRoute(nil), got.Routes...)
	wf, gf = floats(&want), floats(&got)
	for k := range wf {
		if math.Float64bits(*wf[k]) != math.Float64bits(*gf[k]) {
			t.Fatalf("float %d decodes as %v, want %v", k, *gf[k], *wf[k])
		}
		*wf[k], *gf[k] = 0, 0
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded result differs:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzRouteResultRoundTrip builds arbitrary routing results — per-net
// routes cut from raw bytes, arbitrary class lengths, overflow, congestion
// and grid geometry, non-finite values included — and requires a decoded
// Result to re-encode to the identical bytes and hold every value exactly:
// the byte-identity contract the route stage's artifact builds on.
func FuzzRouteResultRoundTrip(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 2, 2, []byte{})
	f.Add(1234.5, 1.0, 200.25, 900.0, 133.25, 1.75, 35.0, 17, 40, 31,
		routeBytes(NetRoute{Len: 12.5, LenByClass: [NumClasses]float64{0.5, 12}, Vias: 5, Class: tech.ClassLocal},
			NetRoute{Len: 1, LenByClass: [NumClasses]float64{1}, Vias: 2, Class: tech.ClassM1}))
	f.Add(math.Copysign(0, -1), 5e-324, -1e300, math.MaxFloat64, 1e21, math.NaN(), math.Inf(1), -3, 0, -1,
		append(routeBytes(NetRoute{Len: math.Inf(-1), Vias: -7, Class: tech.ClassGlobal}), 1, 2, 3))
	f.Fuzz(func(t *testing.T, total, l0, l1, l2, l3, maxCong, pitch float64, overflow, gx, gy int, raw []byte) {
		roundTrip(t, &Result{
			Routes:        bytesRoutes(raw),
			TotalLen:      total,
			LenByClass:    [NumClasses]float64{l0, l1, l2, l3},
			Overflow:      overflow,
			MaxCongestion: maxCong,
			GX:            gx,
			GY:            gy,
			Pitch:         pitch,
		})
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
