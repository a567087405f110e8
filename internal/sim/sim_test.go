package sim

import (
	"fmt"
	"strings"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/netlist"
)

// The M256 miniature must multiply through the simulator API.
func TestSimulatorMultiplies(t *testing.T) {
	d, err := circuits.Generate("M256", 0.004) // 16-bit
	if err != nil {
		t.Fatal(err)
	}
	v := Vector{}
	a, b := uint64(31), uint64(77)
	for i := 0; i < 16; i++ {
		v[fmt.Sprintf("a%d", i)] = a>>uint(i)&1 == 1
		v[fmt.Sprintf("b%d", i)] = b>>uint(i)&1 == 1
	}
	res, err := Run(d, v)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i := 0; i < 32; i++ {
		bit, err := res.Output(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if bit {
			got |= 1 << uint(i)
		}
	}
	if got != a*b {
		t.Fatalf("%d × %d = %d, want %d", a, b, got, a*b)
	}
}

func TestNetAndOutputLookup(t *testing.T) {
	d, err := circuits.Generate("FPU", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Vector{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Output("nope"); err == nil {
		t.Error("unknown output should error")
	}
	if _, ok := res.Net("definitely_not_a_net"); ok {
		t.Error("unknown net should report !ok")
	}
	if _, ok := res.Net("clk"); !ok {
		t.Error("clk net should exist")
	}
}

// An instance with a template pin unbound is an error naming the instance
// and the pin: a DFF missing D or Q would copy through whichever net has
// index 0, and a gate missing an input would leave its output false.
func TestUnboundPin(t *testing.T) {
	for _, c := range []struct {
		fn   string
		pins map[string]string
		out  string
		want string
	}{
		{"DFF", map[string]string{"CK": "clk", "Q": "q"}, "Q", "input D of DFF"},
		{"DFF", map[string]string{"CK": "clk", "D": "a"}, "Q", "output Q of DFF"},
		{"NAND2", map[string]string{"A": "a", "Z": "z"}, "Z", "input B of NAND2"},
	} {
		d := netlist.New("unbound")
		d.AddPI("a", "a")
		d.AddInstance("r", c.fn, c.pins, c.out)
		d.AddPO("o", "a")
		d.SetClock("clk")
		_, err := Run(d, Vector{"a": true})
		if err == nil {
			t.Errorf("%s without %s simulated without error", c.fn, c.want)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, `"r"`) || !strings.Contains(msg, c.want) {
			t.Errorf("error %q does not name instance r and %s", msg, c.want)
		}
	}
}
