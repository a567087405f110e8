package sta

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"tmi3d/internal/jsonwire"
)

// refVec is the reference encoding of a timing vector, built on
// encoding/json's own float format: an entry is a float64 or the string of
// its non-finite value.
func refVec(v []float64) []any {
	if v == nil {
		return nil
	}
	out := make([]any, len(v))
	for i, x := range v {
		switch {
		case math.IsNaN(x):
			out[i] = "NaN"
		case math.IsInf(x, 0):
			out[i] = strconv.FormatFloat(x, 'g', -1, 64) // "+Inf" or "-Inf"
		default:
			out[i] = x
		}
	}
	return out
}

// FuzzResultEncode holds AppendJSON to json.Marshal of the result (its
// MarshalJSON) and to a reference that spells every timing value through
// encoding/json's float64 format: the same bytes, or a failed writer where
// encoding/json fails (a non-finite ClockPs). The raw bytes become vectors
// of arbitrary float64 bit patterns; the shape picks nil and empty vectors.
func FuzzResultEncode(f *testing.F) {
	f.Add(1.5, -2.0, 3.25, 500.0, 0, uint8(0), []byte{})
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 250.0, -1, uint8(1), floatBytes(1e21, math.NaN(), -1e-7, 197.7232525169159))
	f.Add(0.0, math.Copysign(0, -1), 0.0, math.NaN(), 7, uint8(2), floatBytes(5e-324, math.Inf(1), 12.5, math.Inf(-1)))
	f.Add(1.0, 2.0, 3.0, math.Inf(-1), 3, uint8(3), floatBytes(34.01, 34.01, 0.001))
	f.Fuzz(func(t *testing.T, wns, tns, hold, clock float64, crit int, shape uint8, raw []byte) {
		vec := bytesFloat(raw)
		r := &Result{Arrival: vec, Slew: append([]float64{wns}, vec...), Required: []float64{}, Load: nil,
			WNS: wns, TNS: tns, HoldWNS: hold, CriticalNet: crit, ClockPs: clock}
		if shape&1 != 0 {
			r.Required, r.Load = nil, []float64{}
		}
		if shape&2 != 0 {
			r.Arrival = []float64{}
		}
		w := jsonwire.NewWriter(nil)
		r.AppendJSON(w)
		want, err := json.Marshal(r)
		if w.OK() != (err == nil) {
			t.Fatalf("writer ok %v, encoding/json error %v", w.OK(), err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("AppendJSON writes\n%s\nMarshalJSON\n%s", w.Bytes(), want)
		}
		ref, err := json.Marshal(map[string]any{
			"arrival_ps": refVec(r.Arrival), "slew_ps": refVec(r.Slew), "required_ps": refVec(r.Required),
			"load_ff": refVec(r.Load), "wns_ps": refVec([]float64{wns})[0], "tns_ps": refVec([]float64{tns})[0],
			"hold_wns_ps": refVec([]float64{hold})[0], "critical_net": crit, "clock_ps": clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The reference's keys are sorted; compare value by value.
		var got, exp map[string]json.RawMessage
		if err := json.Unmarshal(w.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(ref, &exp); err != nil {
			t.Fatal(err)
		}
		for k, v := range exp {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("%s: AppendJSON writes %s, encoding/json %s", k, got[k], v)
			}
		}
	})
}
