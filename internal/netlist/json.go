package netlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"tmi3d/internal/jsonwire"
)

// JSON codec for Design — the staged engine's netlist artifact format. The
// exported topology round-trips exactly; the unexported name index is
// derivable (netIndex[n.Name] = i for every net) and stays nil on decode, as
// on Clone: NetByName scans without it and AddNet builds it on first use, so
// a decoded design behaves identically to the original, AddNet dedup
// included. Maps encode with sorted keys under encoding/json, so equal
// designs encode to identical bytes.

// MarshalJSON encodes the pins as the JSON object a map[string]int encodes
// to under encoding/json: keys in sorted order, escaped as encoding/json
// escapes strings (HTML characters included), and nil as null.
func (p Pins) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	b := make([]byte, 0, 2+8*len(p))
	b = append(b, '{')
	for i, q := range p {
		if i > 0 {
			if p[i-1].Name >= q.Name {
				return nil, fmt.Errorf("netlist: pins %q and %q out of order", p[i-1].Name, q.Name)
			}
			b = append(b, ',')
		}
		if plainKey(q.Name) {
			b = append(b, '"')
			b = append(b, q.Name...)
			b = append(b, '"')
		} else {
			k, err := json.Marshal(q.Name)
			if err != nil {
				return nil, err
			}
			b = append(b, k...)
		}
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(q.Net), 10)
	}
	return append(b, '}'), nil
}

// plainKey reports whether encoding/json writes name as its bytes between
// quotes.
func plainKey(name string) bool {
	for i := 0; i < len(name); i++ {
		if !jsonwire.Plain(name[i]) {
			return false
		}
	}
	return true
}

// UnmarshalJSON decodes a pin object. The canonical form MarshalJSON writes
// is read directly; any other valid spelling of the object (keys out of
// order or repeated, escapes, whitespace) decodes as a map[string]int would,
// then sorts.
func (p *Pins) UnmarshalJSON(b []byte) error {
	r := jsonwire.NewReader(b)
	dr := designReader{r: r}
	if ps, null := dr.pins(nil); r.Done() {
		if ps == nil && !null {
			ps = Pins{}
		}
		*p = ps
		return nil
	}
	var m map[string]int
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	ps := make(Pins, 0, len(m))
	for name, net := range m {
		ps = append(ps, Pin{Name: name, Net: net})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	*p = ps
	return nil
}

// netJSON is the canonical wire form of a Net. Its fields are Net's, so the
// two convert into each other (the compiler keeps them in step), and the
// design codec moves every net through one []netJSON slice — one encoding/json
// pass over the whole net list instead of a Marshaler call per net. nil and
// empty sink lists both encode as [] and decode to nil, so a design and its
// Clone (which normalizes nil slices to empty) encode to identical bytes —
// equal designs must yield equal artifact bytes regardless of how their sink
// slices were built.
type netJSON struct {
	Name   string   `json:"name"`
	Driver PinRef   `json:"driver"`
	Sinks  []PinRef `json:"sinks"`
}

// netsToWire converts the net list to its wire form with never-null sinks.
func netsToWire(nets []Net) []netJSON {
	if nets == nil {
		return nil
	}
	out := make([]netJSON, len(nets))
	for i := range nets {
		out[i] = netJSON(nets[i])
		if out[i].Sinks == nil {
			out[i].Sinks = []PinRef{}
		}
	}
	return out
}

// netsFromWire restores the net list, normalizing empty sink lists to nil.
func netsFromWire(in []netJSON) []Net {
	if in == nil {
		return nil
	}
	out := make([]Net, len(in))
	for i := range in {
		out[i] = Net(in[i])
		if len(out[i].Sinks) == 0 {
			out[i].Sinks = nil
		}
	}
	return out
}

type designJSON struct {
	Name          string         `json:"name"`
	Instances     []Instance     `json:"instances"`
	Nets          []netJSON      `json:"nets"`
	PIs           map[string]int `json:"pis"`
	POs           map[string]int `json:"pos"`
	ClockNet      int            `json:"clock_net"`
	TargetClockPs float64        `json:"target_clock_ps"`
}

// MarshalJSON encodes the design including sentinel driver values (-1 =
// design port, -2 = undriven).
func (d *Design) MarshalJSON() ([]byte, error) {
	return json.Marshal(designJSON{
		Name:          d.Name,
		Instances:     d.Instances,
		Nets:          netsToWire(d.Nets),
		PIs:           d.PIs,
		POs:           d.POs,
		ClockNet:      d.ClockNet,
		TargetClockPs: d.TargetClockPs,
	})
}

// UnmarshalJSON restores a design written by MarshalJSON. The canonical
// bytes MarshalJSON writes decode in one pass (decodeDesign); any other
// spelling decodes through encoding/json into designJSON, with the same
// result. Either way UnmarshalJSON replaces the whole design, and leaves the
// net-name index nil, as Clone does: AddNet builds it on first use.
func (d *Design) UnmarshalJSON(b []byte) error {
	out, ok := decodeDesign(b)
	if !ok {
		var err error
		if out, err = decodeDesignJSON(b); err != nil {
			return err
		}
	}
	*d = *out
	return nil
}

// decodeDesignJSON decodes any spelling of a design through encoding/json.
func decodeDesignJSON(b []byte) (*Design, error) {
	var in designJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	d := &Design{
		Name:          in.Name,
		Instances:     in.Instances,
		Nets:          netsFromWire(in.Nets),
		PIs:           in.PIs,
		POs:           in.POs,
		ClockNet:      in.ClockNet,
		TargetClockPs: in.TargetClockPs,
	}
	if d.PIs == nil {
		d.PIs = map[string]int{}
	}
	if d.POs == nil {
		d.POs = map[string]int{}
	}
	return d, nil
}

// designReader reads the canonical bytes of one design. Instance and net
// names are cut from one string that holds only name bytes, and the other
// names (pins, functions, cells, ports) are interned, so a decoded design
// keeps no part of its artifact alive.
type designReader struct {
	r *jsonwire.Reader
	// names holds the instance and net names read so far, back to back;
	// ends[k] is the end of the k-th.
	names []byte
	ends  []int
	// intern maps each pin, function, cell and port name to its one string;
	// nil makes every name its own string.
	intern map[string]string
}

// name reads an instance or net name into the name arena.
func (dr *designReader) name() {
	dr.names = append(dr.names, dr.r.Str()...)
	dr.ends = append(dr.ends, len(dr.names))
}

// str reads a pin, function, cell or port name.
func (dr *designReader) str() string {
	b := dr.r.Str()
	if dr.intern == nil || len(b) <= 1 {
		return string(b) // the runtime allocates no one-byte string
	}
	if s, ok := dr.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	dr.intern[s] = s
	return s
}

// pins appends the pins of one canonical pin object — plain keys in
// strictly increasing order — to arena, and reports whether the object was
// null instead.
func (dr *designReader) pins(arena []Pin) ([]Pin, bool) {
	r := dr.r
	if r.Null() {
		return arena, true
	}
	r.Delim('{')
	for n := 0; r.More('}', n); n++ {
		name := dr.str()
		r.Delim(':')
		if n > 0 && arena[len(arena)-1].Name >= name {
			r.Fail()
		}
		arena = append(arena, Pin{Name: name, Net: r.Int()})
	}
	return arena, false
}

// pinRef reads one {"Inst":n,"Pin":"p"} object.
func (dr *designReader) pinRef() PinRef {
	r := dr.r
	r.Delim('{')
	r.Key("Inst")
	inst := r.Int()
	r.Delim(',')
	r.Key("Pin")
	pin := dr.str()
	r.Delim('}')
	return PinRef{Inst: inst, Pin: pin}
}

// ports reads a port map; null reads as an empty map, as the
// encoding/json path normalizes it.
func (dr *designReader) ports() map[string]int {
	r := dr.r
	m := map[string]int{}
	if r.Null() {
		return m
	}
	r.Delim('{')
	for n := 0; r.More('}', n); n++ {
		name := dr.str()
		r.Delim(':')
		m[name] = r.Int()
	}
	return m
}

// designSizes are the lengths of decodeDesign's slices.
type designSizes struct{ insts, pins, nets, sinks int }

// estimateSizes counts bytes to size decodeDesign's slices before it reads
// them. In canonical bytes each instance spells two '{' (itself and its pin
// object) and five ':' plus one per pin; each net spells two '{' (itself and
// its driver) plus one per sink, and five ':' plus two per sink. A name that
// holds '{' or ':' skews the counts, which only size allocations.
func estimateSizes(b []byte) designSizes {
	netsAt := bytes.Index(b, []byte(`],"nets":[`))
	portsAt := bytes.LastIndex(b, []byte(`],"pis":`))
	if netsAt < 0 || portsAt < netsAt {
		return designSizes{}
	}
	insts, nets := b[:netsAt], b[netsAt:portsAt]
	var s designSizes
	s.insts = bytes.Count(insts, []byte{'{'}) / 2            // and the design's own '{'
	s.pins = bytes.Count(insts, []byte{':'}) - 2 - 5*s.insts // and "name": and "instances":
	braces := bytes.Count(nets, []byte{'{'})
	s.nets = bytes.Count(nets, []byte{':'}) - 1 - 2*braces // and "nets":
	s.sinks = braces - 2*s.nets
	s.pins, s.nets, s.sinks = max(s.pins, 0), max(s.nets, 0), max(s.sinks, 0)
	return s
}

// decodeDesign reads the canonical bytes of a design in one pass, or reports
// false. Its result equals what the encoding/json path gives for the same
// bytes: null and empty instance and net lists and pin objects stay
// distinct, empty sink lists read as nil, null port maps as empty maps.
func decodeDesign(b []byte) (*Design, bool) {
	size := estimateSizes(b)
	dr := designReader{
		r:      jsonwire.NewReader(b),
		names:  make([]byte, 0, 8*(size.insts+size.nets)),
		ends:   make([]int, 0, size.insts+size.nets),
		intern: map[string]string{},
	}
	r := dr.r
	d := &Design{}
	r.Delim('{')
	r.Key("name")
	d.Name = string(r.Str())

	// Instances: pins go to one arena, cut per instance at the end (the
	// arena moves as it grows); pinEnds[i] is -1 for a null pin object.
	r.Delim(',')
	r.Key("instances")
	pins := make([]Pin, 0, size.pins)
	pinEnds := make([]int, 0, size.insts)
	if !r.Null() {
		d.Instances = make([]Instance, 0, size.insts)
		r.Delim('[')
		for n := 0; r.More(']', n); n++ {
			var inst Instance
			r.Delim('{')
			r.Key("Name")
			dr.name()
			r.Delim(',')
			r.Key("Func")
			inst.Func = dr.str()
			r.Delim(',')
			r.Key("CellName")
			inst.CellName = dr.str()
			r.Delim(',')
			r.Key("Pins")
			var null bool
			pins, null = dr.pins(pins)
			if null {
				pinEnds = append(pinEnds, -1)
			} else {
				pinEnds = append(pinEnds, len(pins))
			}
			r.Delim(',')
			r.Key("IsBuffer")
			inst.IsBuffer = r.Bool()
			r.Delim('}')
			d.Instances = append(d.Instances, inst)
		}
	}

	// Nets: sinks go to one arena the same way.
	r.Delim(',')
	r.Key("nets")
	sinks := make([]PinRef, 0, size.sinks)
	sinkEnds := make([]int, 0, size.nets)
	if !r.Null() {
		d.Nets = make([]Net, 0, size.nets)
		r.Delim('[')
		for n := 0; r.More(']', n); n++ {
			var net Net
			r.Delim('{')
			r.Key("name")
			dr.name()
			r.Delim(',')
			r.Key("driver")
			net.Driver = dr.pinRef()
			r.Delim(',')
			r.Key("sinks")
			r.Delim('[')
			for k := 0; r.More(']', k); k++ {
				sinks = append(sinks, dr.pinRef())
			}
			sinkEnds = append(sinkEnds, len(sinks))
			r.Delim('}')
			d.Nets = append(d.Nets, net)
		}
	}

	r.Delim(',')
	r.Key("pis")
	d.PIs = dr.ports()
	r.Delim(',')
	r.Key("pos")
	d.POs = dr.ports()
	r.Delim(',')
	r.Key("clock_net")
	d.ClockNet = r.Int()
	r.Delim(',')
	r.Key("target_clock_ps")
	d.TargetClockPs = r.Float()
	r.Delim('}')
	if !r.Done() {
		return nil, false
	}

	names := string(dr.names)
	k, lo := 0, 0
	cut := func() string {
		s := names[lo:dr.ends[k]]
		lo = dr.ends[k]
		k++
		return s
	}
	p := 0
	for i := range d.Instances {
		inst := &d.Instances[i]
		inst.Name = cut()
		if e := pinEnds[i]; e >= 0 {
			inst.Pins = pins[p:e:e]
			p = e
		}
	}
	s := 0
	for i := range d.Nets {
		net := &d.Nets[i]
		net.Name = cut()
		if e := sinkEnds[i]; e > s {
			net.Sinks = sinks[s:e:e]
			s = e
		}
	}
	return d, true
}
