package place

import (
	"sort"

	"tmi3d/internal/binwire"
	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// Snapshot is the deterministic wire form of a Placement, without the Design
// pointer: the staged engine ships the design as its own artifact and rebinds
// on decode.
type Snapshot struct {
	Die   geom.Rect
	RowH  float64
	SiteW float64
	X     []float64
	Y     []float64
	Ports map[string]geom.Point
	Util  float64
}

// WriteBinary appends s's binary form (internal/binwire) to w: port names
// as symbols in sorted order, every coordinate as its bit pattern, nil and
// empty coordinate lists and port maps told apart.
func (s *Snapshot) WriteBinary(w *binwire.Writer) {
	writePoint(w, s.Die.Lo)
	writePoint(w, s.Die.Hi)
	w.Float(s.RowH)
	w.Float(s.SiteW)
	w.Floats(s.X)
	w.Floats(s.Y)
	w.Len(len(s.Ports), s.Ports == nil)
	names := make([]string, 0, len(s.Ports))
	for name := range s.Ports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.Symbol(name)
		writePoint(w, s.Ports[name])
	}
	w.Float(s.Util)
}

func writePoint(w *binwire.Writer, p geom.Point) {
	w.Float(p.X)
	w.Float(p.Y)
}

// ReadBinary replaces s with the snapshot WriteBinary wrote, or fails r.
// Port names out of order, which WriteBinary never writes, fail it too.
func (s *Snapshot) ReadBinary(r *binwire.Reader) {
	*s = Snapshot{
		Die:   geom.Rect{Lo: readPoint(r), Hi: readPoint(r)},
		RowH:  r.Float(),
		SiteW: r.Float(),
		X:     r.Floats(),
		Y:     r.Floats(),
	}
	// A port is a symbol and two coordinates.
	if n, null := r.Len(17); !null && r.OK() {
		s.Ports = make(map[string]geom.Point, n)
		prev := ""
		for k := 0; k < n && r.OK(); k++ {
			name := r.Symbol()
			if k > 0 && name <= prev {
				r.Fail()
			}
			s.Ports[name] = readPoint(r)
			prev = name
		}
	}
	s.Util = r.Float()
}

func readPoint(r *binwire.Reader) geom.Point {
	return geom.Point{X: r.Float(), Y: r.Float()}
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
