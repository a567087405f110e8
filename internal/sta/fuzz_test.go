package sta

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzResultRoundTrip drives the non-finite-safe codec with arbitrary timing
// values — including the NaN/±Inf sentinels a degenerate or unconstrained
// design produces — and requires a decoded Result to re-encode to identical
// bytes: the byte-identity contract the castore and the serving layer build
// on. The raw bytes become multi-element vectors of arbitrary float64 bit
// patterns (finite, NaN payloads, ±Inf mixed), each of which must also encode
// exactly as the per-element nfFloat path does. It also pins the two halves
// of the ClockPs contract: the raw field really does reject non-finite
// values, and Finite always yields a value the plain encoder accepts.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add(1.5, -2.0, 3.25, 500.0, 4.0, 5.0, 0, []byte{})
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 250.0, math.Inf(-1), math.NaN(), -1, floatBytes(1e21, math.NaN(), -1e-7))
	f.Add(0.0, math.Copysign(0, -1), 0.0, 0.0, 0.0, 0.0, 7, floatBytes(5e-324, math.Inf(1), 12.5, math.Inf(-1), -math.MaxFloat64))
	f.Fuzz(func(t *testing.T, wns, tns, hold, clock, a0, s0 float64, crit int, raw []byte) {
		if fc := Finite(clock); math.IsNaN(fc) || math.IsInf(fc, 0) {
			t.Fatalf("Finite(%v) = %v is not finite", clock, fc)
		}
		vec := bytesFloat(raw)
		r := &Result{
			Arrival:     append([]float64{a0, math.Inf(-1)}, vec...),
			Slew:        []float64{s0},
			Required:    append(vec, math.Inf(1), a0),
			Load:        vec,
			WNS:         wns,
			TNS:         tns,
			HoldWNS:     hold,
			CriticalNet: crit,
			ClockPs:     clock,
		}
		if math.IsNaN(clock) || math.IsInf(clock, 0) {
			// ClockPs is a plain float, always finite in a real result: a
			// non-finite value must fail loudly, not slip onto the wire.
			if _, err := json.Marshal(r); err == nil {
				t.Fatal("encoding a non-finite ClockPs succeeded; the field is a plain float")
			}
			r.ClockPs = Finite(clock)
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
		for _, v := range [][]float64{r.Arrival, r.Required, r.Load} {
			got, err := json.Marshal(nfVec(v))
			if err != nil {
				t.Fatalf("encode vector: %v", err)
			}
			want, err := json.Marshal(perElement(v))
			if err != nil {
				t.Fatalf("encode per element: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("vector codec diverges from per-element:\n got %s\nwant %s", got, want)
			}
		}
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
