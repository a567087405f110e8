package netlist

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// JSON codec for Design — the staged engine's netlist artifact format. The
// exported topology round-trips exactly; the unexported name index is
// derivable (netIndex[n.Name] = i for every net) and is rebuilt on decode,
// so a decoded design behaves identically to the original, AddNet dedup
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
		if !plainByte(name[i]) {
			return false
		}
	}
	return true
}

// plainByte reports whether c is printable ASCII that encoding/json writes
// unescaped in a string (it escapes ", \ and, for HTML, <, > and &).
func plainByte(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// UnmarshalJSON decodes a pin object. The canonical form MarshalJSON writes
// is parsed directly; any other valid spelling of the object (keys out of
// order or repeated, escapes, whitespace) decodes as a map[string]int would,
// then sorts.
func (p *Pins) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*p = nil
		return nil
	}
	if ps, ok := parseCanonicalPins(b); ok {
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

// parseCanonicalPins parses {"k":n,...} with no whitespace, plain keys in
// strictly increasing order and integers in shortest form, or reports false.
// Every name is a substring of one string copy of b, so the pins cost two
// allocations however many there are.
func parseCanonicalPins(b []byte) (Pins, bool) {
	if len(b) < 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return nil, false
	}
	if len(b) == 2 {
		return Pins{}, true
	}
	n := 0
	for _, c := range b {
		if c == ':' {
			n++
		}
	}
	s := string(b)
	ps := make(Pins, 0, n)
	i := 1
	for {
		if s[i] != '"' {
			return nil, false
		}
		j := i + 1
		for j < len(s) && plainByte(s[j]) {
			j++
		}
		if j+1 >= len(s) || s[j] != '"' || s[j+1] != ':' {
			return nil, false
		}
		name := s[i+1 : j]
		if len(ps) > 0 && ps[len(ps)-1].Name >= name {
			return nil, false
		}
		net, k, ok := parseCanonicalInt(s, j+2)
		if !ok {
			return nil, false
		}
		ps = append(ps, Pin{Name: name, Net: net})
		switch {
		case s[k] == ',':
			i = k + 1
		case k == len(s)-1: // the closing brace
			return ps, true
		default:
			return nil, false
		}
	}
}

// parseCanonicalInt parses the integer strconv.AppendInt writes at s[i:]
// and returns it with the index just past it. Leading zeros, a plus sign
// and anything that might overflow an int32 fall back to the map decoder.
func parseCanonicalInt(s string, i int) (v, end int, ok bool) {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' && i-start < 9 {
		v = v*10 + int(s[i]-'0')
		i++
	}
	switch {
	case i == start, i >= len(s), s[i] >= '0' && s[i] <= '9', s[start] == '0' && i-start > 1, neg && v == 0:
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
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

// UnmarshalJSON restores a design written by MarshalJSON, rebuilding the
// net name index.
func (d *Design) UnmarshalJSON(b []byte) error {
	var in designJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	d.Name = in.Name
	d.Instances = in.Instances
	d.Nets = netsFromWire(in.Nets)
	d.PIs = in.PIs
	d.POs = in.POs
	if d.PIs == nil {
		d.PIs = map[string]int{}
	}
	if d.POs == nil {
		d.POs = map[string]int{}
	}
	d.ClockNet = in.ClockNet
	d.TargetClockPs = in.TargetClockPs
	d.netIndex = make(map[string]int, len(d.Nets))
	for i := range d.Nets {
		d.netIndex[d.Nets[i].Name] = i
	}
	return nil
}
