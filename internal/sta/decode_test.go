package sta

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzResultDecode holds the one-pass decoder to the encoding/json path: on
// any bytes the one-pass decoder accepts, the encoding/json path succeeds
// with the same result, bit for bit (NaN included). The canonical seeds must
// take the one-pass path.
func FuzzResultDecode(f *testing.F) {
	full := &Result{
		Arrival:  []float64{math.Inf(-1), 12.5, math.NaN(), 0, -0.25},
		Slew:     []float64{4.25, math.Inf(1)},
		Required: []float64{},
		WNS:      math.Inf(1), TNS: -3.5, HoldWNS: math.NaN(),
		CriticalNet: 7, ClockPs: 850,
	}
	var seeds [][]byte
	for _, r := range []*Result{full, {}} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := decodeResult(b); !ok {
			f.Fatalf("canonical result %s left the one-pass path", b)
		}
		seeds = append(seeds, b)
	}
	s := string(seeds[0])
	for _, edit := range [][2]string{
		{`"arrival_ps":[`, `"arrival_ps": [`},
		{`"arrival_ps":[`, `"arrival_ps":[null,`},
		{`"-Inf"`, `"-\u0049nf"`},
		{`"-Inf"`, `"Inf"`},
		{`"NaN"`, `"nan"`},
		{`12.5`, `1.25e1`},
		{`12.5`, `1e400`},
		{`"required_ps":[]`, `"required_ps":null`},
		{`"critical_net":7`, `"critical_net":-0`},
		{`"critical_net":7`, `"critical_net":7.5`},
		{`"wns_ps":"+Inf"`, `"wns_ps":1`},
		{`"clock_ps":850`, `"Clock_ps":850`},
	} {
		seeds = append(seeds, []byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeResult(b)
		if !ok {
			return
		}
		slow, err := decodeResultJSON(b)
		if err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		same := func(x, y []float64) bool {
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
		if !same(fast.Arrival, slow.Arrival) || !same(fast.Slew, slow.Slew) || !same(fast.Required, slow.Required) ||
			!same(fast.Load, slow.Load) ||
			!same([]float64{fast.WNS, fast.TNS, fast.HoldWNS, fast.ClockPs}, []float64{slow.WNS, slow.TNS, slow.HoldWNS, slow.ClockPs}) ||
			fast.CriticalNet != slow.CriticalNet {
			t.Fatalf("%q decodes to %+v one pass, and to %+v through encoding/json", b, fast, slow)
		}
	})
}
