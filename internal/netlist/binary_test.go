package netlist

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"tmi3d/internal/binwire"
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

// encode returns d's binary form.
func encode(d *Design) []byte {
	w := binwire.NewWriter(nil)
	d.WriteBinary(w)
	return w.Bytes()
}

// decode reads a design from b, reporting false for bytes ReadBinary
// refuses or leaves unread.
func decode(b []byte) (*Design, bool) {
	r := binwire.NewReader(b)
	d := new(Design)
	d.ReadBinary(r)
	return d, r.Done()
}

// roundTrip encodes d, decodes the bytes and requires the decoded design to
// equal d — TargetClockPs bit for bit, empty sink lists read back as nil,
// the net-name index left nil — and to re-encode to the same bytes.
func roundTrip(t *testing.T, d *Design) *Design {
	t.Helper()
	data := encode(d)
	back, ok := decode(data)
	if !ok {
		t.Fatalf("%d bytes of a design do not decode", len(data))
	}
	want := *d
	want.netIndex = nil
	want.Nets = append([]Net(nil), d.Nets...)
	if d.Nets != nil && want.Nets == nil {
		want.Nets = []Net{}
	}
	for i := range want.Nets {
		if len(want.Nets[i].Sinks) == 0 {
			want.Nets[i].Sinks = nil
		}
	}
	if math.Float64bits(back.TargetClockPs) != math.Float64bits(want.TargetClockPs) {
		t.Fatalf("target clock %v decodes as %v", want.TargetClockPs, back.TargetClockPs)
	}
	got := *back
	got.TargetClockPs, want.TargetClockPs = 0, 0
	if !reflect.DeepEqual(&got, &want) {
		t.Fatalf("round trip not exact:\n got %#v\nwant %#v", &got, &want)
	}
	if again := encode(back); !bytes.Equal(again, data) {
		t.Fatal("the decoded design re-encodes differently")
	}
	return back
}

// The Design codec is an exact inverse: every exported field equal, the
// name lookups behaving identically (AddNet dedup included, through the index
// it builds on first use), and the re-encoding byte-identical — the staged
// engine stores these bytes and re-serves them.
func TestDesignBinaryRoundTrip(t *testing.T) {
	d := testDesign()
	// An undriven net keeps its -2 driver sentinel; ports use -1. Both must
	// survive the trip.
	d.AddNet("floating")
	back := roundTrip(t, d)
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
}

// A cloned design and its original encode to the same bytes — Clone and the
// codec agree on what the design is.
func TestDesignCloneEncodesSame(t *testing.T) {
	d := testDesign()
	if !bytes.Equal(encode(d), encode(d.Clone())) {
		t.Fatal("clone encodes differently from original")
	}
}

// Nets keep their wire form: nil and empty sink lists both decode to nil,
// non-empty lists keep their order, the net list keeps its order (not sorted
// by name), and nil and empty net lists stay distinct.
func TestDesignNetsRoundTrip(t *testing.T) {
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
	back := roundTrip(t, d)
	for i, want := range []string{"z", "a", "m"} {
		if back.Nets[i].Name != want || back.NetByName(want) != i {
			t.Fatalf("net %d = %q (index %d), want %q in input order", i, back.Nets[i].Name, back.NetByName(want), want)
		}
	}
	for _, nets := range [][]Net{nil, {}} {
		d.Nets = nets
		if back := roundTrip(t, d); (back.Nets == nil) != (nets == nil) {
			t.Fatalf("net list %#v decodes to %#v", nets, back.Nets)
		}
	}
}
