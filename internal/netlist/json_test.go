package netlist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func testDesign() *Design {
	d := New("adder")
	d.AddInstance("u1", "NAND2", map[string]string{"A": "a", "B": "b", "Y": "n1"}, "Y")
	d.AddInstance("u2", "INV", map[string]string{"A": "n1", "Y": "out"}, "Y")
	d.Instances[0].CellName = "NAND2_X2"
	d.Instances[1].CellName = "INV_X1"
	d.Instances[1].IsBuffer = true
	d.AddPI("a", "a")
	d.AddPI("b", "b")
	d.AddPO("out", "out")
	d.SetClock("clk")
	d.TargetClockPs = 437.25
	return d
}

// The Design codec must be an exact inverse: every exported field equal, the
// name lookups behaving identically (AddNet dedup included, through the index
// it builds on first use), and the re-encoding byte-identical — the staged
// engine's artifact IDs hang off those bytes.
func TestDesignJSONRoundTrip(t *testing.T) {
	d := testDesign()
	// An undriven net keeps its -2 driver sentinel; ports use -1. Both must
	// survive the trip.
	d.AddNet("floating")

	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The decode leaves the derived net-name index nil, as Clone does.
	want := *d
	want.netIndex = nil
	if !reflect.DeepEqual(&want, &back) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", &back, &want)
	}
	// Identical behavior without the index: lookup and dedup.
	if got, want := back.NetByName("n1"), d.NetByName("n1"); got != want {
		t.Fatalf("NetByName(n1) = %d, want %d", got, want)
	}
	if back.NetByName("nope") != -1 {
		t.Fatal("NetByName on a missing net should be -1")
	}
	if ni := back.AddNet("floating"); ni != d.NetByName("floating") {
		t.Fatalf("AddNet re-added an existing net (index %d)", ni)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding differs:\n first %s\nsecond %s", data, again)
	}
}

// A cloned design and its original encode to the same bytes — Clone and the
// codec agree on what the design is.
func TestDesignJSONCloneStable(t *testing.T) {
	d := testDesign()
	a, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("clone encodes differently from original")
	}
}

// The bulk net path keeps the per-net wire form: nil and empty sink lists
// both encode as [] and decode to nil, non-empty lists keep their order, the
// net list keeps its order (not sorted by name), and nil and empty net lists
// stay distinct.
func TestDesignJSONNetsBulk(t *testing.T) {
	d := &Design{
		Name: "bulk",
		Nets: []Net{
			{Name: "z", Driver: PinRef{Inst: -1, Pin: "z"}},
			{Name: "a", Driver: PinRef{Inst: 0, Pin: "Y"}, Sinks: []PinRef{}},
			{Name: "m", Driver: PinRef{Inst: -2}, Sinks: []PinRef{{Inst: 3, Pin: "B"}, {Inst: -1, Pin: "out"}, {Inst: 1, Pin: "A"}}},
		},
		PIs:      map[string]int{},
		POs:      map[string]int{},
		ClockNet: -1,
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	const wantNets = `"nets":[` +
		`{"name":"z","driver":{"Inst":-1,"Pin":"z"},"sinks":[]},` +
		`{"name":"a","driver":{"Inst":0,"Pin":"Y"},"sinks":[]},` +
		`{"name":"m","driver":{"Inst":-2,"Pin":""},"sinks":[{"Inst":3,"Pin":"B"},{"Inst":-1,"Pin":"out"},{"Inst":1,"Pin":"A"}]}]`
	if !bytes.Contains(data, []byte(wantNets)) {
		t.Fatalf("nets wire form changed:\n got %s\nwant %s", data, wantNets)
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"z", "a", "m"} {
		if back.Nets[i].Name != want || back.NetByName(want) != i {
			t.Fatalf("net %d = %q (index %d), want %q in input order", i, back.Nets[i].Name, back.NetByName(want), want)
		}
	}
	if back.Nets[0].Sinks != nil || back.Nets[1].Sinks != nil {
		t.Fatalf("empty sink lists must decode to nil: %#v, %#v", back.Nets[0].Sinks, back.Nets[1].Sinks)
	}
	if !reflect.DeepEqual(back.Nets[2].Sinks, d.Nets[2].Sinks) {
		t.Fatalf("sinks = %v, want %v", back.Nets[2].Sinks, d.Nets[2].Sinks)
	}

	for _, c := range []struct {
		nets []Net
		wire string
	}{{nil, `"nets":null`}, {[]Net{}, `"nets":[]`}} {
		d.Nets = c.nets
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(c.wire)) {
			t.Fatalf("net list %#v encodes as %s, want %s", c.nets, data, c.wire)
		}
		var back Design
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if (back.Nets == nil) != (c.nets == nil) {
			t.Fatalf("net list %#v decodes to %#v", c.nets, back.Nets)
		}
	}
}

// Pins encode to exactly the bytes encoding/json gives the same pins as a
// map[string]int — sorted keys, HTML-escaped — on their own and inside an
// Instance, and a nil list encodes as a nil map does.
func TestPinsEncodeAsMap(t *testing.T) {
	type mapInstance struct {
		Name     string
		Func     string
		CellName string
		Pins     map[string]int
		IsBuffer bool
	}
	for _, names := range [][]string{
		nil,
		{},
		{"A", "B", "Z"},
		{"CK", "D", "Q", "QN"},
		{"<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\x01", "\x7f", "é", "a b", "", "\xff", "\xe2\x80"},
	} {
		var pins Pins
		var m map[string]int
		if names != nil {
			pins, m = Pins{}, map[string]int{}
		}
		for i, name := range names {
			pins.Set(name, 1000-7*i)
			m[name] = 1000 - 7*i
		}
		got, err := json.Marshal(pins)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(m)
		if !bytes.Equal(got, want) {
			t.Errorf("pins %q encode as %s, the map as %s", names, got, want)
		}
		got, _ = json.Marshal(Instance{Name: "u<1>", Func: "F", Pins: pins})
		want, _ = json.Marshal(mapInstance{Name: "u<1>", Func: "F", Pins: m})
		if !bytes.Equal(got, want) {
			t.Errorf("instance with pins %q encodes as %s, with a map as %s", names, got, want)
		}
	}
	if _, err := json.Marshal(Pins{{Name: "Z", Net: 1}, {Name: "A", Net: 2}}); err == nil {
		t.Error("unsorted pins encoded without error")
	}
}

// The pin decoder reads the canonical form directly and every other spelling
// of the object through a map: either way a decode gives the Pins the map
// path gives, sorted, and fails where the map path fails.
func TestPinsDecodeAsMap(t *testing.T) {
	for _, in := range []string{
		`{}`,
		`null`,
		`{"A":1,"B":22,"Z":333}`,
		`{"A":-1,"B":0}`,
		`{"":5,"A":6}`,
		`{"Z":1,"A":2}`,         // keys out of order
		`{"A":1,"A":2}`,         // repeated key: the last wins
		`{"B":1,"A":2,"B":3}`,   // repeated and out of order
		`{"\u0041":1,"B":2}`,    // escaped key
		`{"<":1,"\"":2,"\\":3}`, // keys encoding/json escapes
		`{ "A" : 1 , "B":2 }`,   // whitespace
		`{"A":1e2}`,             // exponent
		`{"A":-0}`,              // negative zero
		`{"A":1234567890123}`,   // past the fast path's digits
		`{"é":1,"A":2}`,         // non-ASCII key
		`{"A":1.5}`,             // not an int: both fail
		`{"A":01}`,              // leading zero: both fail
		`{"A":1,}`,              // trailing comma: both fail
		`{"A":"1"}`,             // string value: both fail
		`["A",1]`,               // not an object: both fail
		`{"A":1}x`,              // trailing bytes: both fail
	} {
		var m map[string]int
		mapErr := json.Unmarshal([]byte(in), &m)
		var got Pins
		err := json.Unmarshal([]byte(in), &got)
		if (err != nil) != (mapErr != nil) {
			t.Errorf("%s: pins error %v, map error %v", in, err, mapErr)
			continue
		}
		if err != nil {
			continue
		}
		var want Pins
		if m != nil {
			want = Pins{}
			for _, k := range sortedKeys(m) {
				want = append(want, Pin{Name: k, Net: m[k]})
			}
		}
		if !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%s: pins decode to %#v, the map path to %#v", in, got, want)
		}
	}
}
