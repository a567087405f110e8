package lint

import (
	"bytes"
	"strings"
	"testing"

	"tmi3d/internal/netlist"
)

// TestForeignPinOrderDeterministic pins LIB-PINSET findings to sorted pin
// order: an instance with several foreign pins must report them the same
// way on every run, whatever the Pins map iteration order.
func TestForeignPinOrderDeterministic(t *testing.T) {
	d := cleanDesign()
	for _, pin := range []string{"Q", "CK", "E"} {
		d.Instances[0].Pins[pin] = d.PIs["a"]
		na := d.PIs["a"]
		d.Nets[na].Sinks = append(d.Nets[na].Sinks, netlist.PinRef{Inst: 0, Pin: pin})
	}
	var first []byte
	for run := 0; run < 50; run++ {
		var buf bytes.Buffer
		if err := CheckDesign(d, DesignOptions{}).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			if n := strings.Count(buf.String(), "LIB-PINSET"); n != 3 {
				t.Fatalf("want 3 LIB-PINSET findings, got %d:\n%s", n, buf.String())
			}
			if ce, e, q := strings.Index(buf.String(), `"CK"`), strings.Index(buf.String(), `"E"`),
				strings.Index(buf.String(), `"Q"`); !(ce < e && e < q) {
				t.Fatalf("LIB-PINSET findings not in sorted pin order:\n%s", buf.String())
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d report differs from run 0:\n%s\nvs\n%s", run, buf.Bytes(), first)
		}
	}
}
