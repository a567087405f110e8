package netlist

import (
	"tmi3d/internal/binwire"
)

// Binary codec for Design — the stage store's netlist artifact form
// (internal/binwire). The exported topology round-trips exactly, nil and
// empty instance, net and pin lists and port maps told apart; a net's sink
// list is written by length alone, so nil and empty both read as nil and a
// design and its Clone (which makes every sink list non-nil) encode to the
// same bytes. The unexported name index is derivable and stays nil on
// decode, as on Clone: NetByName scans without it and AddNet builds it on
// first use. Port maps are written in sorted key order.
//
// Layout: the design name; every instance name then every net name, back to
// back in one blob (each record below carries its name's length); the total
// pin and sink counts; the instances; the nets; the PI and PO maps; the
// clock net and target clock. Function, cell, pin and port names are
// symbols. The blob and the counts let the decoder cut every name from one
// string and every pin and sink list from one arena, each allocated once.

// WriteBinary appends d's binary form to w.
func (d *Design) WriteBinary(w *binwire.Writer) {
	w.String(d.Name)
	size, pins, sinks := 0, 0, 0
	for i := range d.Instances {
		size += len(d.Instances[i].Name)
		pins += len(d.Instances[i].Pins)
	}
	for i := range d.Nets {
		size += len(d.Nets[i].Name)
		sinks += len(d.Nets[i].Sinks)
	}
	w.Uvarint(uint64(size))
	for i := range d.Instances {
		w.Raw(d.Instances[i].Name)
	}
	for i := range d.Nets {
		w.Raw(d.Nets[i].Name)
	}
	w.Uvarint(uint64(pins))
	w.Uvarint(uint64(sinks))

	w.Len(len(d.Instances), d.Instances == nil)
	for i := range d.Instances {
		inst := &d.Instances[i]
		w.Uvarint(uint64(len(inst.Name)))
		w.Symbol(inst.Func)
		w.Symbol(inst.CellName)
		w.Len(len(inst.Pins), inst.Pins == nil)
		for _, p := range inst.Pins {
			w.Symbol(p.Name)
			w.Int(p.Net)
		}
		w.Bool(inst.IsBuffer)
	}
	w.Len(len(d.Nets), d.Nets == nil)
	for i := range d.Nets {
		net := &d.Nets[i]
		w.Uvarint(uint64(len(net.Name)))
		w.Int(net.Driver.Inst)
		w.Symbol(net.Driver.Pin)
		w.Uvarint(uint64(len(net.Sinks)))
		for _, s := range net.Sinks {
			w.Int(s.Inst)
			w.Symbol(s.Pin)
		}
	}
	writePorts(w, d.PIs)
	writePorts(w, d.POs)
	w.Int(d.ClockNet)
	w.Float(d.TargetClockPs)
}

// writePorts appends a port map, keys in sorted order.
func writePorts(w *binwire.Writer, m map[string]int) {
	w.Len(len(m), m == nil)
	for _, name := range sortedKeys(m) {
		w.Symbol(name)
		w.Int(m[name])
	}
}

// ReadBinary replaces d with the design WriteBinary wrote, or fails r. A
// count or name length that disagrees with the records, or port names out
// of order, fail it too: such bytes would not re-encode to themselves.
func (d *Design) ReadBinary(r *binwire.Reader) {
	*d = Design{Name: r.String()}
	names := string(r.Blob())
	// A pin is at least two bytes (a symbol and a net), a sink too.
	pins := make([]Pin, 0, r.Count(r.Uvarint(), 2))
	sinks := make([]PinRef, 0, r.Count(r.Uvarint(), 2))
	at := 0
	// A name's length is checked against the names left in the blob, not
	// against the input left: its bytes are in the blob.
	name := func() string {
		n := r.Uvarint()
		if n > uint64(len(names)-at) {
			r.Fail()
			return ""
		}
		at += int(n)
		return names[at-int(n) : at]
	}

	// An instance is at least five bytes: name length, function, cell, pin
	// list and flag.
	if n, null := r.Len(5); !null && r.OK() {
		d.Instances = make([]Instance, n)
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		inst.Name = name()
		inst.Func = r.Symbol()
		inst.CellName = r.Symbol()
		if n, null := r.Len(2); !null && r.OK() {
			if n > cap(pins)-len(pins) {
				r.Fail()
				break
			}
			lo := len(pins)
			for k := 0; k < n; k++ {
				pins = append(pins, Pin{Name: r.Symbol(), Net: r.Int()})
			}
			inst.Pins = pins[lo:len(pins):len(pins)]
		}
		inst.IsBuffer = r.Bool()
	}
	// A net is at least four bytes: name length, driver and sink count.
	if n, null := r.Len(4); !null && r.OK() {
		d.Nets = make([]Net, n)
	}
	for i := range d.Nets {
		net := &d.Nets[i]
		net.Name = name()
		net.Driver = PinRef{Inst: r.Int(), Pin: r.Symbol()}
		n := r.Count(r.Uvarint(), 2)
		if n > cap(sinks)-len(sinks) {
			r.Fail()
			break
		}
		if n > 0 {
			lo := len(sinks)
			for k := 0; k < n; k++ {
				sinks = append(sinks, PinRef{Inst: r.Int(), Pin: r.Symbol()})
			}
			net.Sinks = sinks[lo:len(sinks):len(sinks)]
		}
	}
	d.PIs = readPorts(r)
	d.POs = readPorts(r)
	d.ClockNet = r.Int()
	d.TargetClockPs = r.Float()
	if at != len(names) || len(pins) != cap(pins) || len(sinks) != cap(sinks) {
		r.Fail()
	}
}

// readPorts reads a port map written by writePorts.
func readPorts(r *binwire.Reader) map[string]int {
	n, null := r.Len(2)
	if null || !r.OK() {
		return nil
	}
	m := make(map[string]int, n)
	prev := ""
	for k := 0; k < n && r.OK(); k++ {
		name := r.Symbol()
		if k > 0 && name <= prev {
			r.Fail()
		}
		m[name] = r.Int()
		prev = name
	}
	return m
}
