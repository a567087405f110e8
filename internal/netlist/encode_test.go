package netlist

import (
	"math"
	"strconv"
	"testing"
)

// FuzzDesignEncode builds designs from a fuzzed name, pin name, clock and
// shape, and round-trips each. Names cross every string the design writes:
// escaped and invalid-UTF-8 ones included. The shape picks nil or empty
// instance, net, pin, sink and port lists, and pin lists out of order or
// with a name twice, which the codec carries as they are; a NaN or infinite
// clock crosses as its bits.
func FuzzDesignEncode(f *testing.F) {
	f.Add("fpu", "A", 500.0, []byte{3, 2, 0, 1})
	f.Add(`<a&"b\`, "Z\x7f", 250.5, []byte{4, 1, 0xff, 0x10})
	f.Add("B\xe2\x80\xa8>", "\xff", 1e21, []byte{2, 3, 0x21, 0x42})
	f.Add("", "", math.NaN(), []byte{})
	f.Add("n", "A", math.Copysign(0, -1), []byte{1, 0, 0x80})
	f.Fuzz(func(t *testing.T, name, pin string, clock float64, shape []byte) {
		at := func(i int) byte {
			if i < len(shape) {
				return shape[i]
			}
			return 0
		}
		mode := at(2)
		d := &Design{Name: name, ClockNet: int(at(3)) - 2, TargetClockPs: clock}
		if mode&1 == 0 {
			d.Instances, d.Nets = []Instance{}, []Net{}
		}
		nets := int(at(0) % 6)
		for i := 0; i < nets; i++ {
			n := Net{Name: name + strconv.Itoa(i), Driver: PinRef{Inst: i - 1, Pin: pin}}
			for j := 0; j < int(at(1)%4); j++ {
				n.Sinks = append(n.Sinks, PinRef{Inst: j - 1, Pin: pin + strconv.Itoa(j)})
			}
			if mode&2 != 0 && len(n.Sinks) == 0 {
				n.Sinks = []PinRef{}
			}
			d.Nets = append(d.Nets, n)
		}
		for i := 0; i < nets; i++ {
			inst := Instance{Name: name + "/u" + strconv.Itoa(i), Func: pin, CellName: name, IsBuffer: i%2 == 1}
			for k, p := range []string{"A", pin, "Z" + pin, name} {
				inst.Pins.Set(p, (i+k)%nets)
			}
			switch {
			case mode&4 != 0 && len(inst.Pins) > 1:
				inst.Pins[0], inst.Pins[1] = inst.Pins[1], inst.Pins[0]
			case mode&8 != 0 && len(inst.Pins) > 1:
				inst.Pins[1].Name = inst.Pins[0].Name
			case mode&16 != 0:
				inst.Pins = Pins{}
			case mode&32 != 0:
				inst.Pins = nil
			}
			d.Instances = append(d.Instances, inst)
		}
		if mode&64 == 0 {
			d.PIs = map[string]int{name: 0, pin: 1, "clk": -1}
			d.POs = map[string]int{}
		}
		if mode&128 != 0 {
			d.POs = map[string]int{"out" + name: 2, pin + "<": 3}
		}
		roundTrip(t, d)
	})
}

// A design whose lists and maps are all nil round-trips with each still nil,
// and a design with each empty with each still empty.
func TestDesignAppendNil(t *testing.T) {
	back := roundTrip(t, &Design{Name: "nil"})
	if back.Instances != nil || back.Nets != nil || back.PIs != nil || back.POs != nil {
		t.Fatalf("nil lists and maps decode as %#v", back)
	}
	back = roundTrip(t, &Design{Instances: []Instance{{Pins: Pins{}}}, Nets: []Net{}, PIs: map[string]int{}, POs: map[string]int{}})
	if back.Instances[0].Pins == nil || back.Nets == nil || back.PIs == nil || back.POs == nil {
		t.Fatalf("empty lists and maps decode as %#v", back)
	}
	roundTrip(t, testDesign())
}
