package sta

import (
	"math"
	"testing"
)

// FuzzResultEncode round-trips results built from fuzzed scalars and raw
// bytes read as vectors of arbitrary float64 bit patterns; the shape picks
// nil and empty vectors.
func FuzzResultEncode(f *testing.F) {
	f.Add(1.5, -2.0, 3.25, 500.0, 0, uint8(0), []byte{})
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 250.0, -1, uint8(1), floatBytes(1e21, math.NaN(), -1e-7, 197.7232525169159))
	f.Add(0.0, math.Copysign(0, -1), 0.0, math.NaN(), 7, uint8(2), floatBytes(5e-324, math.Inf(1), 12.5, math.Inf(-1)))
	f.Add(1.0, 2.0, 3.0, math.Inf(-1), math.MinInt64, uint8(3), floatBytes(34.01, 34.01, 0.001))
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
		roundTrip(t, r)
	})
}
