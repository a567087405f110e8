package netlist

import (
	"bytes"
	"strings"
	"testing"
)

func isOut(cell, pin string) bool {
	switch pin {
	case "Z", "Q", "CO":
		return true
	case "S":
		return !strings.HasPrefix(cell, "MUX2")
	}
	return false
}

func TestVerilogRoundTrip(t *testing.T) {
	d := sample()
	d.Instances[0].CellName = "NAND2_X2"
	d.Instances[1].CellName = "INV_X1"
	d.Instances[2].CellName = "DFF_X1"
	d.InsertBuffer(d.NetByName("n1"), d.Nets[d.NetByName("n1")].Sinks, "BUF", "BUF_X2")
	var buf bytes.Buffer
	if err := d.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"module t (", "NAND2_X2 g1", ".CK(clk)", "endmodule"} {
		if !strings.Contains(text, want) {
			t.Errorf("verilog missing %q:\n%s", want, text)
		}
	}
	back, err := ParseVerilog(&buf, isOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Name != "t" {
		t.Errorf("module name %q", back.Name)
	}
	if len(back.Instances) != len(d.Instances) {
		t.Fatalf("%d instances, want %d", len(back.Instances), len(d.Instances))
	}
	bs, ds := back.Stats(), d.Stats()
	if bs.NumCells != ds.NumCells || bs.NumNets != ds.NumNets || bs.NumSeq != ds.NumSeq {
		t.Errorf("stats differ: %+v vs %+v", bs, ds)
	}
	// Cell bindings survive; generic function recovered from the X suffix.
	for i := range back.Instances {
		if back.Instances[i].CellName == "" {
			t.Errorf("instance %d lost its cell binding", i)
		}
	}
	// Only the instance InsertBuffer made is a buffer.
	for i := range back.Instances {
		if back.Instances[i].IsBuffer != d.Instances[i].IsBuffer {
			t.Errorf("instance %s: IsBuffer %v, want %v", back.Instances[i].Name, back.Instances[i].IsBuffer, d.Instances[i].IsBuffer)
		}
	}
	if back.Instances[0].Func != "NAND2" {
		t.Errorf("func = %q, want NAND2", back.Instances[0].Func)
	}
	if back.ClockNet < 0 {
		t.Error("clock net not recovered")
	}
	// Connectivity: the NAND2 output feeds the buffer's input.
	n1, ok1 := back.Instances[0].Pins.Net("Z")
	if n1a, ok := back.Instances[3].Pins.Net("A"); !ok || !ok1 || n1a != n1 {
		t.Error("connectivity lost in round trip")
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := []string{
		"INV_X1 u1 (.A(a), .Z(z));\n", // instance before module
		"module m (a);\ninput a;\nINV_X1 u1 .A(a);\nendmodule\n",
		"module m (a);\ninput a;\nINV_X1 u1 (A(a));\nendmodule\n",
		"",
	}
	for i, src := range cases {
		if _, err := ParseVerilog(strings.NewReader(src), isOut); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("n1_2"); got != "n1_2" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize("a.b[3]"); strings.ContainsAny(got, ".[]") {
		t.Errorf("sanitize left specials: %q", got)
	}
	if got := sanitize("3x"); got[0] >= '0' && got[0] <= '9' {
		t.Errorf("sanitize left leading digit: %q", got)
	}
}
