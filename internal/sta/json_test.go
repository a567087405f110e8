package sta

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestResultJSONRoundTrip exercises the non-finite-safe codec: unreached
// nets carry -Inf arrivals and the summary metrics can be ±Inf, all of which
// plain encoding/json rejects. The codec must round-trip them exactly and
// re-encode to identical bytes.
func TestResultJSONRoundTrip(t *testing.T) {
	in := &Result{
		Arrival:     []float64{0, 12.5, math.Inf(-1), 40},
		Slew:        []float64{20, 21.5, math.NaN(), 25},
		Required:    []float64{100, 90, math.Inf(1), 80},
		Load:        []float64{1.5, 2.5, 0, 4},
		WNS:         math.Inf(1),
		TNS:         0,
		HoldWNS:     -3.5,
		CriticalNet: 2,
		ClockPs:     400,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Arrival) != 4 || !math.IsInf(out.Arrival[2], -1) {
		t.Fatalf("arrival not restored: %v", out.Arrival)
	}
	if !math.IsNaN(out.Slew[2]) {
		t.Fatalf("NaN slew not restored: %v", out.Slew)
	}
	if !math.IsInf(out.Required[2], 1) {
		t.Fatalf("+Inf required not restored: %v", out.Required)
	}
	if !math.IsInf(out.WNS, 1) || out.HoldWNS != -3.5 || out.CriticalNet != 2 || out.ClockPs != 400 {
		t.Fatalf("summary fields not restored: %+v", out)
	}
	data2, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", data, data2)
	}
}

func TestResultJSONRejectsBadSentinel(t *testing.T) {
	var out Result
	err := json.Unmarshal([]byte(`{"arrival_ps":["huge"]}`), &out)
	if err == nil {
		t.Fatal("expected error for invalid non-finite sentinel")
	}
}

// vecEdges are the float64 values where encoding/json's number format
// switches shape: signed zero, the 'f'/'e' boundaries at 1e-6 and 1e21, the
// e-0N exponent clean-up, the subnormal and extreme magnitudes, and the three
// non-finite sentinels.
var vecEdges = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 123.456,
	1e-6, 1e-7, -1e-7, 1e-9, 1.5e-10, 1e-100,
	9.99e20, 1e21, -1e21, 1.5e300,
	5e-324, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// perElement is the oracle wire form: one nfFloat Marshaler per entry.
func perElement(v []float64) []nfFloat {
	if v == nil {
		return nil
	}
	out := make([]nfFloat, len(v))
	for i, x := range v {
		out[i] = nfFloat(x)
	}
	return out
}

// The single-pass vector codec must write exactly the bytes the per-element
// nfFloat path writes, and decode them to the same values — the artifact
// bytes (and so every persisted store) depend on it.
func TestVectorCodecMatchesPerElement(t *testing.T) {
	cases := [][]float64{nil, {}, vecEdges}
	for _, x := range vecEdges {
		cases = append(cases, []float64{x})
	}
	for _, c := range cases {
		want, err := json.Marshal(perElement(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(nfVec(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("vector %v:\n got %s\nwant %s", c, got, want)
		}
		direct, err := nfVec(c).MarshalJSON()
		if err != nil || !bytes.Equal(direct, want) {
			t.Errorf("vector %v: direct MarshalJSON %s (%v), want %s", c, direct, err, want)
		}

		var back nfVec
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("decode %s: %v", got, err)
		}
		var oracle []nfFloat
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if (back == nil) != (oracle == nil) || len(back) != len(oracle) {
			t.Fatalf("decode %s: got %v (nil %v), oracle %v (nil %v)", got, back, back == nil, oracle, oracle == nil)
		}
		for i := range back {
			b, o := back[i], float64(oracle[i])
			if math.Float64bits(b) != math.Float64bits(o) {
				t.Errorf("decode %s entry %d: got %v, oracle %v", got, i, b, o)
			}
		}
	}
}

// The vector decoder accepts what the per-element path accepts — whitespace,
// escaped sentinels, null entries — and rejects what it rejects.
func TestVectorDecodeMatchesPerElement(t *testing.T) {
	for _, in := range []string{
		`[ 1 , -2.5e-7 ,"NaN", "-Inf" ]`,
		`["\u002bInf"]`,
		`[null,3]`,
		` [ ] `,
		`null`,
	} {
		var got nfVec
		var oracle []nfFloat
		gerr := json.Unmarshal([]byte(in), &got)
		oerr := json.Unmarshal([]byte(in), &oracle)
		if gerr != nil || oerr != nil {
			t.Fatalf("%s: vector err %v, per-element err %v", in, gerr, oerr)
		}
		again, _ := json.Marshal(got)
		want, _ := json.Marshal(oracle)
		if !bytes.Equal(again, want) || (got == nil) != (oracle == nil) {
			t.Errorf("%s: vector decodes to %s, per-element to %s", in, again, want)
		}
	}
	for _, in := range []string{`["huge"]`, `[true]`, `[[1]]`, `[{"a":1}]`, `["1,2"]`, `[1e400]`, `{}`, `3`} {
		var got nfVec
		var oracle []nfFloat
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("%s: vector decode accepted it", in)
		}
		if err := json.Unmarshal([]byte(in), &oracle); err == nil {
			t.Errorf("%s: per-element decode accepted it (oracle drifted)", in)
		}
	}
}
