package sta

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzResultRoundTrip drives the codec with arbitrary timing values —
// including the NaN/±Inf sentinels a degenerate or unconstrained design
// produces — and requires a decoded Result to hold every value bit for bit
// and re-encode to identical bytes: the byte-identity contract the stage
// store builds on. The raw bytes become multi-element vectors of arbitrary
// float64 bit patterns (finite, NaN payloads, ±Inf mixed). It also pins
// Finite: it always yields a finite value, for the plain JSON fields that
// carry timing.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add(1.5, -2.0, 3.25, 500.0, 4.0, 5.0, 0, []byte{})
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 250.0, math.Inf(-1), math.NaN(), -1, floatBytes(1e21, math.NaN(), -1e-7))
	f.Add(0.0, math.Copysign(0, -1), 0.0, 0.0, 0.0, 0.0, 7, floatBytes(5e-324, math.Inf(1), 12.5, math.Inf(-1), -math.MaxFloat64))
	f.Fuzz(func(t *testing.T, wns, tns, hold, clock, a0, s0 float64, crit int, raw []byte) {
		if fc := Finite(clock); math.IsNaN(fc) || math.IsInf(fc, 0) {
			t.Fatalf("Finite(%v) = %v is not finite", clock, fc)
		}
		vec := bytesFloat(raw)
		roundTrip(t, &Result{
			Arrival:     append([]float64{a0, math.Inf(-1)}, vec...),
			Slew:        []float64{s0},
			Required:    append(vec, math.Inf(1), a0),
			Load:        vec,
			WNS:         wns,
			TNS:         tns,
			HoldWNS:     hold,
			CriticalNet: crit,
			ClockPs:     clock,
		})
	})
}

// bytesFloat reads raw as little-endian float64 bit patterns (a trailing
// partial word is dropped); fewer than eight bytes give a nil vector.
func bytesFloat(raw []byte) []float64 {
	var out []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return out
}

func floatBytes(v ...float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}
