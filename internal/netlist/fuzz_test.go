package netlist

import (
	"fmt"
	"testing"
)

// FuzzDesignRoundTrip encodes arbitrary small designs — including the empty
// design and nets with no sinks, the degenerate shapes a -scale run near zero
// produces — and requires the decode to equal the design, re-encode to
// identical bytes, and resolve every net name without the index the wire
// format deliberately omits. One instance per net carries pins named after
// the fuzzed string, so any bytes at all, invalid UTF-8 included, cross the
// symbol table, and any clock, NaN included, crosses as its bits.
func FuzzDesignRoundTrip(f *testing.F) {
	f.Add("", uint8(0), uint8(0), -1, 0.0)
	f.Add("fpu", uint8(3), uint8(2), 0, 500.0)
	f.Add("m", uint8(1), uint8(0), -2, 1e12)
	f.Add(`<a&"b\`, uint8(4), uint8(1), 0, 250.5)
	f.Add("B\u2028>", uint8(2), uint8(3), 1, 1.0)
	f.Fuzz(func(t *testing.T, name string, nets, sinks uint8, clockNet int, clock float64) {
		d := &Design{
			Name:          name,
			PIs:           map[string]int{},
			POs:           map[string]int{},
			ClockNet:      clockNet,
			TargetClockPs: clock,
		}
		for i := 0; i < int(nets%8); i++ {
			n := Net{Name: fmt.Sprintf("n%d", i), Driver: PinRef{Inst: -1, Pin: "p"}}
			for j := 0; j < int(sinks%4); j++ {
				n.Sinks = append(n.Sinks, PinRef{Inst: -1, Pin: fmt.Sprintf("s%d", j)})
			}
			d.Nets = append(d.Nets, n)
		}
		if len(d.Nets) > 0 {
			d.PIs["in"] = 0
			d.POs["out"] = len(d.Nets) - 1
		}
		for i := range d.Nets {
			inst := Instance{Name: fmt.Sprintf("u%d", i), Func: "NAND2"}
			for k, pin := range []string{"A", name, "Z" + name, name + "\x7f"} {
				inst.Pins.Set(pin, (i+k)%len(d.Nets))
			}
			d.Instances = append(d.Instances, inst)
		}
		back := roundTrip(t, d)
		// Every net resolves by name without netIndex, and an unknown name
		// misses — a decoded design behaves like the original.
		for i := range back.Nets {
			if got := back.NetByName(back.Nets[i].Name); got != i {
				t.Fatalf("decoded NetByName(%q) = %d, want %d", back.Nets[i].Name, got, i)
			}
		}
		if got := back.NetByName("no-such-net"); got != -1 {
			t.Fatalf("decoded NetByName(miss) = %d, want -1", got)
		}
	})
}
