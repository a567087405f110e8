package sta

import (
	"bytes"
	"math"
	"testing"

	"tmi3d/internal/binwire"
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

// sameBits reports whether two vectors hold the same bit patterns, nil and
// empty told apart.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) || (x == nil) != (y == nil) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// roundTrip encodes r and requires the decode to hold every value bit for
// bit, NaN payloads and −0 included, and to re-encode to the same bytes.
func roundTrip(t *testing.T, r *Result) *Result {
	t.Helper()
	data := encode(r)
	back, ok := decode(data)
	if !ok {
		t.Fatalf("%d bytes of a result do not decode", len(data))
	}
	if !sameBits(back.Arrival, r.Arrival) || !sameBits(back.Slew, r.Slew) || !sameBits(back.Required, r.Required) ||
		!sameBits(back.Load, r.Load) ||
		!sameBits([]float64{back.WNS, back.TNS, back.HoldWNS, back.ClockPs}, []float64{r.WNS, r.TNS, r.HoldWNS, r.ClockPs}) ||
		back.CriticalNet != r.CriticalNet {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", back, r)
	}
	if again := encode(back); !bytes.Equal(again, data) {
		t.Fatal("the decoded result re-encodes differently")
	}
	return back
}

// Timing carries non-finite values — unreached nets keep -Inf arrivals and
// the summary metrics can be ±Inf — and the codec round-trips them exactly,
// with nil and empty vectors told apart.
func TestResultBinaryRoundTrip(t *testing.T) {
	roundTrip(t, &Result{
		Arrival:     []float64{0, 12.5, math.Inf(-1), 40},
		Slew:        []float64{20, 21.5, math.NaN(), 25},
		Required:    []float64{100, 90, math.Inf(1), 80},
		Load:        []float64{1.5, 2.5, 0, 4},
		WNS:         math.Inf(1),
		TNS:         0,
		HoldWNS:     -3.5,
		CriticalNet: 2,
		ClockPs:     400,
	})
	roundTrip(t, &Result{Arrival: []float64{}, Slew: nil, WNS: math.Copysign(0, -1), ClockPs: math.NaN(), CriticalNet: -1})
}
