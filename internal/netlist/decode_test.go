package netlist

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzDesignDecode holds the one-pass decoder to the encoding/json path: on
// any bytes the one-pass decoder accepts, the encoding/json path succeeds
// with a deeply equal design (nil and empty lists told apart). The seeds are
// canonical designs and respellings of them, which the one-pass decoder
// must accept or leave to encoding/json; the canonical ones must take the
// one-pass path.
func FuzzDesignDecode(f *testing.F) {
	d := testDesign()
	d.AddNet("floating")
	d.Instances[1].Pins = Pins{}
	canonical, err := json.Marshal(d)
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := json.Marshal(&Design{Name: "e", Instances: []Instance{}, Nets: []Net{}})
	null, _ := json.Marshal(&Design{Name: "n"})
	for _, b := range [][]byte{canonical, empty, null} {
		if _, ok := decodeDesign(b); !ok {
			f.Fatalf("canonical design %s left the one-pass path", b)
		}
		f.Add(b)
	}
	s := string(canonical)
	for _, edit := range [][2]string{
		{`"instances":[`, `"instances": [`},
		{`"Pins":{}`, `"Pins":null`},
		{`"sinks":[]`, `"sinks":null`},
		{`"pis":{`, `"pis":null,"x":{`},
		{`"pis":{"a":0,`, `"pis":{"a":0,"a":1,`},
		{`"Name":"u1"`, `"Name":"u\u0031"`},
		{`"Pin":"A"`, `"Pin":"\u0041"`},
		{`{"A":0,"B":1`, `{"B":1,"A":0`},
		{`{"A":0,"B":1`, `{"A":0,"A":1`},
		{`"clock_net":4`, `"clock_net":-0`},
		{`"clock_net":4`, `"clock_net":4.0`},
		{`"clock_net":4`, `"clock_net":1234567890`},
		{`"target_clock_ps":437.25`, `"target_clock_ps":1e400`},
		{`"target_clock_ps":437.25`, `"target_clock_ps":-0`},
		{`"IsBuffer":true`, `"isbuffer":true`},
		{`"IsBuffer":true`, `"IsBuffer":1`},
		{`}`, `} `},
	} {
		f.Add([]byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	f.Add([]byte(s + "x"))
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeDesign(b)
		if !ok {
			return
		}
		slow, err := decodeDesignJSON(b)
		if err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%q decodes to\n%#v\none pass, and to\n%#v\nthrough encoding/json", b, fast, slow)
		}
	})
}
