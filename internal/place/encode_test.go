package place

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"tmi3d/internal/geom"
	"tmi3d/internal/jsonwire"
)

// FuzzSnapshotEncode holds AppendJSON to encoding/json with HTML escaping
// off, as the artifact envelopes encode a snapshot: the same bytes, or a
// failed writer where encoding/json fails (a NaN or infinite coordinate).
// Port names cross the unescaped string writer, escaped and invalid-UTF-8
// ones included; the shape picks nil and empty coordinate and port lists.
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
		w := jsonwire.NewWriter(nil)
		s.AppendJSON(w)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err := enc.Encode(s)
		if w.OK() != (err == nil) {
			t.Fatalf("writer ok %v, encoding/json error %v", w.OK(), err)
		}
		if want := bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}); err == nil && !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("AppendJSON writes\n%s\nencoding/json\n%s", w.Bytes(), want)
		}
	})
}
