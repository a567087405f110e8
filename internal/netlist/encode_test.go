package netlist

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"tmi3d/internal/jsonwire"
)

// sameAppend holds AppendJSON to json.Marshal, the design's MarshalJSON:
// the same bytes, or a failed writer where encoding/json fails.
func sameAppend(t *testing.T, d *Design) {
	t.Helper()
	w := jsonwire.NewWriter(nil)
	d.AppendJSON(w)
	want, err := json.Marshal(d)
	if w.OK() != (err == nil) {
		t.Fatalf("writer ok %v, encoding/json error %v", w.OK(), err)
	}
	if err == nil && !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("AppendJSON writes\n%s\nencoding/json\n%s", w.Bytes(), want)
	}
}

// FuzzDesignEncode builds designs from a fuzzed name, pin name, clock and
// shape, and holds AppendJSON to json.Marshal on each. Names cross every
// string the design writes: escaped and invalid-UTF-8 ones included. The
// shape picks nil or empty instance, net, pin, sink and port lists, and pin
// lists out of order or with a name twice, which MarshalJSON refuses; a
// NaN or infinite clock is refused the same way.
func FuzzDesignEncode(f *testing.F) {
	f.Add("fpu", "A", 500.0, []byte{3, 2, 0, 1})
	f.Add(`<a&"b\`, "Z\x7f", 250.5, []byte{4, 1, 0xff, 0x10})
	f.Add("B\xe2\x80\xa8>", "\xff", 1e21, []byte{2, 3, 0x21, 0x42})
	f.Add("", "", 0.0, []byte{})
	f.Add("n", "A", 1.0, []byte{1, 0, 0x80})
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
		sameAppend(t, d)
	})
}

// A nil design writes null, as encoding/json writes a nil pointer.
func TestDesignAppendNil(t *testing.T) {
	sameAppend(t, nil)
	sameAppend(t, testDesign())
}
