// Package place implements standard-cell placement: recursive min-cut
// bisection with Fiduccia–Mattheyses refinement and terminal propagation,
// followed by row legalization — the Cadence Encounter placement stage of
// the paper's flow. The die is sized from total cell area over the target
// utilization (Section S6: ≈80%, lowered for wire-dominated designs), so the
// T-MI footprint shrink emerges directly from the smaller folded cells.
package place

import (
	"fmt"
	"math"
	"sort"

	"tmi3d/internal/geom"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

// Placement holds cell locations on the die.
type Placement struct {
	Design *netlist.Design
	Die    geom.Rect
	RowH   float64
	SiteW  float64
	// X, Y are instance center coordinates, µm.
	X, Y []float64
	// Ports maps PI/PO names to boundary positions.
	Ports map[string]geom.Point
	// Util is the final cell area over core area.
	Util float64
}

// Options configures placement.
type Options struct {
	Lib        *liberty.Library
	Tech       *tech.Technology
	TargetUtil float64
	// DisableFM skips the Fiduccia–Mattheyses refinement (ablation: the
	// bisection then relies on the structural index-order prior alone).
	DisableFM bool
}

// Run places the mapped design.
func Run(d *netlist.Design, opt Options) (*Placement, error) {
	if opt.Lib == nil || opt.Tech == nil {
		return nil, fmt.Errorf("place: library and technology required")
	}
	util := opt.TargetUtil
	if util <= 0 || util > 1 {
		util = 0.8
	}
	n := len(d.Instances)
	widths := make([]float64, n)
	totalArea := 0.0
	for i := range d.Instances {
		c := opt.Lib.Cell(d.Instances[i].CellName)
		if c == nil {
			return nil, fmt.Errorf("place: instance %q not mapped", d.Instances[i].Name)
		}
		widths[i] = c.Width
		totalArea += c.Area
	}
	rowH := opt.Tech.CellHeight
	siteW := opt.Tech.SiteWidth
	coreArea := totalArea / util
	side := math.Sqrt(coreArea)
	rows := int(math.Ceil(side / rowH))
	if rows < 1 {
		rows = 1
	}
	dieW := coreArea / (float64(rows) * rowH)
	die := geom.NewRect(0, 0, dieW, float64(rows)*rowH)

	p := &Placement{
		Design: d,
		Die:    die,
		RowH:   rowH,
		SiteW:  siteW,
		X:      make([]float64, n),
		Y:      make([]float64, n),
		Ports:  make(map[string]geom.Point),
		Util:   totalArea / die.Area(),
	}
	placePorts(d, p)

	// Initial spread so terminal propagation has positions at every level.
	for i := 0; i < n; i++ {
		p.X[i] = die.Center().X
		p.Y[i] = die.Center().Y
	}

	eng := newEngine(p, widths, opt.DisableFM)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	eng.bisect(all, die, true)
	legalize(p, widths)
	return p, nil
}

// placePorts spreads PI/PO pins around the die boundary deterministically.
func placePorts(d *netlist.Design, p *Placement) {
	names := d.SortedPIs()
	for po := range d.POs {
		names = append(names, "po:"+po)
	}
	sort.Strings(names)
	per := p.Die.Perimeter()
	for i, name := range names {
		dist := per * float64(i) / float64(len(names))
		pt := perimeterPoint(p.Die, dist)
		key := name
		if len(name) > 3 && name[:3] == "po:" {
			key = name[3:]
		}
		p.Ports[key] = pt
	}
}

func perimeterPoint(r geom.Rect, dist float64) geom.Point {
	w, h := r.W(), r.H()
	switch {
	case dist < w:
		return geom.Point{X: r.Lo.X + dist, Y: r.Lo.Y}
	case dist < w+h:
		return geom.Point{X: r.Hi.X, Y: r.Lo.Y + (dist - w)}
	case dist < 2*w+h:
		return geom.Point{X: r.Hi.X - (dist - w - h), Y: r.Hi.Y}
	default:
		return geom.Point{X: r.Lo.X, Y: r.Hi.Y - (dist - 2*w - h)}
	}
}

// NetHPWL returns one net's bounding-box wirelength.
func (p *Placement) NetHPWL(ni int) float64 {
	net := &p.Design.Nets[ni]
	var pts [2]geom.Point // running bbox
	first := true
	add := func(pt geom.Point) {
		if first {
			pts[0], pts[1] = pt, pt
			first = false
			return
		}
		pts[0].X = math.Min(pts[0].X, pt.X)
		pts[0].Y = math.Min(pts[0].Y, pt.Y)
		pts[1].X = math.Max(pts[1].X, pt.X)
		pts[1].Y = math.Max(pts[1].Y, pt.Y)
	}
	pin := func(ref netlist.PinRef) {
		if ref.Inst >= 0 {
			add(geom.Point{X: p.X[ref.Inst], Y: p.Y[ref.Inst]})
		} else if pt, ok := p.Ports[ref.Pin]; ok {
			add(pt)
		}
	}
	pin(net.Driver)
	for _, s := range net.Sinks {
		pin(s)
	}
	if first {
		return 0
	}
	return (pts[1].X - pts[0].X) + (pts[1].Y - pts[0].Y)
}

// PinPoint returns the location of a pin reference.
func (p *Placement) PinPoint(ref netlist.PinRef) geom.Point {
	if ref.Inst >= 0 {
		return geom.Point{X: p.X[ref.Inst], Y: p.Y[ref.Inst]}
	}
	if pt, ok := p.Ports[ref.Pin]; ok {
		return pt
	}
	return p.Die.Center()
}

// legalize packs cells into rows and sites without overlap, preserving the
// bisection ordering.
func legalize(p *Placement, widths []float64) {
	rows := int(p.Die.H()/p.RowH + 0.5)
	if rows < 1 {
		rows = 1
	}
	type rowBucket struct {
		cells []int32
	}
	buckets := make([]rowBucket, rows)
	for i := range p.X {
		r := int(p.Y[i] / p.RowH)
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		buckets[r].cells = append(buckets[r].cells, int32(i))
	}
	// Pack each row left-to-right in x order; spill overflow to the next row
	// (wrapping once to the first row if needed).
	var spill []int32
	pack := func(r int, cells []int32) []int32 {
		sort.Slice(cells, func(a, b int) bool {
			if p.X[cells[a]] != p.X[cells[b]] {
				return p.X[cells[a]] < p.X[cells[b]]
			}
			return cells[a] < cells[b]
		})
		cursor := p.Die.Lo.X
		y := p.Die.Lo.Y + (float64(r)+0.5)*p.RowH
		var over []int32
		// Suffix widths let each cell reserve room for everything after it,
		// so preserving the global-placement spread never forces a spill
		// when the row has capacity (Abacus-style clamping).
		suffix := make([]float64, len(cells)+1)
		for i := len(cells) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1] + widths[cells[i]]
		}
		for i, c := range cells {
			w := widths[c]
			if cursor+w > p.Die.Hi.X+1e-9 {
				over = append(over, c)
				continue
			}
			// Keep the cell near its global-placement x, bounded left by the
			// packing cursor and right by the room the rest of the row needs.
			x := math.Max(cursor, p.X[c]-w/2)
			if xmax := p.Die.Hi.X - suffix[i]; x > xmax {
				x = math.Max(cursor, xmax)
			}
			// Snap to the site grid without crossing the cursor.
			sites := math.Round((x - p.Die.Lo.X) / p.SiteW)
			x = p.Die.Lo.X + sites*p.SiteW
			if x < cursor {
				x += p.SiteW
			}
			if x+w > p.Die.Hi.X+1e-9 {
				x = p.Die.Hi.X - w
				if x < cursor-1e-9 {
					over = append(over, c)
					continue
				}
			}
			p.X[c] = x + w/2
			p.Y[c] = y
			cursor = x + w
		}
		return over
	}
	for r := 0; r < rows; r++ {
		cells := append(buckets[r].cells, spill...)
		spill = pack(r, cells)
	}
	// Any remaining spill goes around once more with relaxed ordering.
	for r := 0; r < rows && len(spill) > 0; r++ {
		y := p.Die.Lo.Y + (float64(r)+0.5)*p.RowH
		used := 0.0
		for i := range p.X {
			if math.Abs(p.Y[i]-y) < p.RowH/4 {
				used += widths[i]
			}
		}
		cursor := p.Die.Lo.X + used
		var still []int32
		for _, c := range spill {
			if cursor+widths[c] <= p.Die.Hi.X {
				p.X[c] = cursor + widths[c]/2
				p.Y[c] = y
				cursor += widths[c]
			} else {
				still = append(still, c)
			}
		}
		spill = still
	}
	// Absolute fallback: stack at the die edge (over-utilized corner cases).
	for _, c := range spill {
		p.X[c] = p.Die.Hi.X - widths[c]/2
		p.Y[c] = p.Die.Hi.Y - p.RowH/2
	}
}
