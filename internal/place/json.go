package place

import (
	"encoding/json"
	"sort"

	"tmi3d/internal/geom"
	"tmi3d/internal/jsonwire"
	"tmi3d/internal/netlist"
)

// Snapshot is the deterministic wire form of a Placement, without the Design
// pointer: the staged engine ships the design as its own artifact and rebinds
// on decode. All fields are exported and finite, so encoding/json round-trips
// it exactly (Ports encodes with sorted keys).
type Snapshot struct {
	Die   geom.Rect             `json:"die"`
	RowH  float64               `json:"row_h"`
	SiteW float64               `json:"site_w"`
	X     []float64             `json:"x"`
	Y     []float64             `json:"y"`
	Ports map[string]geom.Point `json:"ports"`
	Util  float64               `json:"util"`
}

// UnmarshalJSON decodes a snapshot, replacing s. The canonical bytes
// encoding/json writes for a Snapshot decode in one pass (decodeSnapshot);
// any other spelling decodes through encoding/json into the method-free
// snapshotJSON, with the same result.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	out, ok := decodeSnapshot(b)
	if !ok {
		var in snapshotJSON
		if err := json.Unmarshal(b, &in); err != nil {
			return err
		}
		out = Snapshot(in)
	}
	*s = out
	return nil
}

// AppendJSON appends the bytes encoding/json writes for s with HTML escaping
// off, as the artifact envelopes encode it, in one pass: port names in
// sorted order. A non-finite coordinate, which encoding/json refuses, marks
// w failed instead.
func (s *Snapshot) AppendJSON(w *jsonwire.Writer) {
	w.Raw(`{"die":{"Lo":`)
	appendPoint(w, s.Die.Lo)
	w.Raw(`,"Hi":`)
	appendPoint(w, s.Die.Hi)
	w.Raw(`},"row_h":`)
	w.Float(s.RowH)
	w.Raw(`,"site_w":`)
	w.Float(s.SiteW)
	w.Raw(`,"x":`)
	w.Floats(s.X)
	w.Raw(`,"y":`)
	w.Floats(s.Y)
	w.Raw(`,"ports":`)
	if s.Ports == nil {
		w.Null()
	} else {
		names := make([]string, 0, len(s.Ports))
		for name := range s.Ports {
			names = append(names, name)
		}
		sort.Strings(names)
		w.Byte('{')
		for i, name := range names {
			if i > 0 {
				w.Byte(',')
			}
			w.String(name, false)
			w.Byte(':')
			appendPoint(w, s.Ports[name])
		}
		w.Byte('}')
	}
	w.Raw(`,"util":`)
	w.Float(s.Util)
	w.Byte('}')
}

// WireSize estimates the bytes AppendJSON writes for s.
func (s *Snapshot) WireSize() int { return 128 + 12*(len(s.X)+len(s.Y)) + 48*len(s.Ports) }

// appendPoint appends one {"X":x,"Y":y} object.
func appendPoint(w *jsonwire.Writer, p geom.Point) {
	w.Raw(`{"X":`)
	w.Float(p.X)
	w.Raw(`,"Y":`)
	w.Float(p.Y)
	w.Byte('}')
}

// snapshotJSON is Snapshot without its methods: encoding/json decodes it
// field by field.
type snapshotJSON Snapshot

// decodeSnapshot reads the canonical bytes of a snapshot in one pass, or
// reports false. Port names are plain strings; the ports may come in any
// order, since a map keeps the last of a repeated key either way.
func decodeSnapshot(b []byte) (Snapshot, bool) {
	r := jsonwire.NewReader(b)
	var s Snapshot
	r.Delim('{')
	r.Key("die")
	r.Delim('{')
	r.Key("Lo")
	s.Die.Lo = readPoint(r)
	r.Delim(',')
	r.Key("Hi")
	s.Die.Hi = readPoint(r)
	r.Delim('}')
	r.Delim(',')
	r.Key("row_h")
	s.RowH = r.Float()
	r.Delim(',')
	r.Key("site_w")
	s.SiteW = r.Float()
	r.Delim(',')
	r.Key("x")
	s.X = r.Floats()
	r.Delim(',')
	r.Key("y")
	s.Y = r.Floats()
	r.Delim(',')
	r.Key("ports")
	if !r.Null() {
		r.Delim('{')
		s.Ports = map[string]geom.Point{}
		for n := 0; r.More('}', n); n++ {
			name := r.Str()
			r.Delim(':')
			s.Ports[string(name)] = readPoint(r)
		}
	}
	r.Delim(',')
	r.Key("util")
	s.Util = r.Float()
	r.Delim('}')
	return s, r.Done()
}

// readPoint reads one {"X":x,"Y":y} object.
func readPoint(r *jsonwire.Reader) geom.Point {
	var p geom.Point
	r.Delim('{')
	r.Key("X")
	p.X = r.Float()
	r.Delim(',')
	r.Key("Y")
	p.Y = r.Float()
	r.Delim('}')
	return p
}

// Snapshot captures the placement's geometry. The copy is deep: mutating the
// placement afterwards (optimization appends buffer coordinates) never
// changes a snapshot already taken.
func (p *Placement) Snapshot() Snapshot {
	s := Snapshot{
		Die:   p.Die,
		RowH:  p.RowH,
		SiteW: p.SiteW,
		X:     append([]float64(nil), p.X...),
		Y:     append([]float64(nil), p.Y...),
		Util:  p.Util,
	}
	if p.Ports != nil {
		s.Ports = make(map[string]geom.Point, len(p.Ports))
		for k, v := range p.Ports {
			s.Ports[k] = v
		}
	}
	return s
}

// Restore rebuilds a Placement from a snapshot, bound to d. The snapshot's
// slices and map are not shared with the result.
func (s Snapshot) Restore(d *netlist.Design) *Placement {
	p := &Placement{
		Design: d,
		Die:    s.Die,
		RowH:   s.RowH,
		SiteW:  s.SiteW,
		X:      append([]float64(nil), s.X...),
		Y:      append([]float64(nil), s.Y...),
		Util:   s.Util,
	}
	if s.Ports != nil {
		p.Ports = make(map[string]geom.Point, len(s.Ports))
		for k, v := range s.Ports {
			p.Ports[k] = v
		}
	}
	return p
}

// CloneFor returns a deep copy of the placement bound to d — the staged
// engine's clone-on-consume discipline: cached placement artifacts are
// immutable, and a consumer that optimizes the design (moving and adding
// cells) works on its own copy.
func (p *Placement) CloneFor(d *netlist.Design) *Placement {
	return p.Snapshot().Restore(d)
}
