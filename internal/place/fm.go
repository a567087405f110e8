package place

import (
	"math"
	"slices"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// engine drives the recursive bisection. Its FM scratch is owned here and
// reused by every region: per-instance and per-net stamp arrays with an
// epoch counter stand in for per-region sets, so refining a region costs
// time proportional to the region, not the design.
type engine struct {
	p      *Placement
	widths []float64
	noFM   bool

	// netStart/nets hold each instance's nets as compressed rows: instance
	// i touches nets[netStart[i]:netStart[i+1]], ascending, clock excluded,
	// one entry per pin (duplicates kept).
	netStart []int32
	nets     []int32
	// netPinStart/netPins hold each net's pins, driver first, as compressed
	// rows: an instance index, or ^k for a port at ports[k]. Ports with no
	// position are left out.
	netPinStart []int32
	netPins     []int32
	ports       []geom.Point
	// side is the current bipartition side of each instance (true = B).
	side []bool
	// instStamp[i] == epoch marks instance i inside the region being
	// refined; netStamp[ni] == epoch marks net ni as collected, with local
	// id netLocal[ni].
	epoch     int32
	instStamp []int32
	netStamp  []int32
	netLocal  []int32
	// netList holds the region's global net ids, resliced per region and
	// sized for the root region; core is the FM core loaded per region.
	netList []int32
	core    fmCore
	// scratch holds one side of a region while bisect splits it in place.
	scratch []int32
}

// newEngine builds the instance→nets rows once and sizes the FM scratch.
func newEngine(p *Placement, widths []float64, noFM bool) *engine {
	d := p.Design
	n, m := len(d.Instances), len(d.Nets)
	pins, netPins := 0, 0
	for i := range d.Instances {
		pins += len(d.Instances[i].Pins)
	}
	for ni := range d.Nets {
		netPins += 1 + len(d.Nets[ni].Sinks)
	}
	e := &engine{
		p: p, widths: widths, noFM: noFM,
		netStart:    make([]int32, n+1),
		nets:        make([]int32, 0, pins),
		netPinStart: make([]int32, m+1),
		netPins:     make([]int32, 0, netPins),
		side:        make([]bool, n),
		instStamp:   make([]int32, n),
		netStamp:    make([]int32, m),
		netLocal:    make([]int32, m),
		netList:     make([]int32, 0, m),
		scratch:     make([]int32, n),
	}
	var row []int32
	for i := range d.Instances {
		e.netStart[i] = int32(len(e.nets))
		row = row[:0]
		for _, p := range d.Instances[i].Pins {
			if p.Net != d.ClockNet {
				row = append(row, int32(p.Net))
			}
		}
		slices.Sort(row)
		e.nets = append(e.nets, row...)
	}
	e.netStart[n] = int32(len(e.nets))
	// Size the FM core for the root region: every instance and pin.
	e.core = fmCore{
		nets:     make([]fmNet, 0, m),
		pins:     make([]int32, 0, len(e.nets)),
		cells:    make([]fmCell, 0, n),
		netStart: make([]int32, 0, n+1),
		cellNets: make([]int32, 0, len(e.nets)),
	}
	pin := func(ref netlist.PinRef) {
		if ref.Inst >= 0 {
			e.netPins = append(e.netPins, int32(ref.Inst))
		} else if pt, ok := p.Ports[ref.Pin]; ok {
			e.netPins = append(e.netPins, ^int32(len(e.ports)))
			e.ports = append(e.ports, pt)
		}
	}
	for ni := range d.Nets {
		e.netPinStart[ni] = int32(len(e.netPins))
		pin(d.Nets[ni].Driver)
		for _, s := range d.Nets[ni].Sinks {
			pin(s)
		}
	}
	e.netPinStart[m] = int32(len(e.netPins))
	return e
}

// netsOf returns instance i's nets.
func (e *engine) netsOf(i int32) []int32 { return e.nets[e.netStart[i]:e.netStart[i+1]] }

// bisect recursively partitions insts into the region, reordering insts in
// place. insts is always in ascending index order: the root is 0..n-1, and
// each half is split off in order.
func (e *engine) bisect(insts []int32, region geom.Rect, vertical bool) {
	// Update position estimates: everything in this region sits at its
	// center until split further.
	cx, cy := region.Center().X, region.Center().Y
	for _, i := range insts {
		e.p.X[i] = cx
		e.p.Y[i] = cy
	}
	if len(insts) <= 8 || (region.W() < 4*e.p.SiteW && region.H() < 2*e.p.RowH) {
		e.placeLeaf(insts, region)
		return
	}
	// Split the longer side.
	vertical = region.W() >= region.H()

	total := 0.0
	for _, i := range insts {
		total += e.widths[i]
	}
	half := total / 2

	// Initial split in instance-index order: the circuit generators emit
	// structurally-related gates consecutively, so index order is a strong
	// locality prior that FM then refines.
	acc := 0.0
	for _, i := range insts {
		e.side[i] = acc >= half
		acc += e.widths[i]
	}

	if !e.noFM {
		e.fmRefine(insts, region, vertical, total)
	}

	// Split insts in place, A side first, each side keeping index order:
	// B-side instances wait in scratch while the A side compacts.
	na, nb := 0, 0
	areaA := 0.0
	for _, i := range insts {
		if e.side[i] {
			e.scratch[nb] = i
			nb++
		} else {
			insts[na] = i
			na++
			areaA += e.widths[i]
		}
	}
	copy(insts[na:], e.scratch[:nb])
	a, bset := insts[:na], insts[na:]
	frac := areaA / total
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	var ra, rb geom.Rect
	if vertical {
		cut := region.Lo.X + frac*region.W()
		ra = geom.NewRect(region.Lo.X, region.Lo.Y, cut, region.Hi.Y)
		rb = geom.NewRect(cut, region.Lo.Y, region.Hi.X, region.Hi.Y)
	} else {
		cut := region.Lo.Y + frac*region.H()
		ra = geom.NewRect(region.Lo.X, region.Lo.Y, region.Hi.X, cut)
		rb = geom.NewRect(region.Lo.X, cut, region.Hi.X, region.Hi.Y)
	}
	e.bisect(a, ra, !vertical)
	e.bisect(bset, rb, !vertical)
}

// fmRefine improves the region's initial bipartition (e.side) with at most
// three Fiduccia–Mattheyses passes using anchor-aware cut gains.
func (e *engine) fmRefine(insts []int32, region geom.Rect, vertical bool, totalArea float64) {
	e.core.refine(0.42*totalArea, 0.58*totalArea, func() { e.loadRegion(insts, region, vertical) })
	for k, i := range insts {
		e.side[i] = e.core.cells[k].side
	}
}

// loadRegion loads the FM core with the region's cells (local id k is
// insts[k]), their sides in e.side, and the nets touching them, anchored on
// the side of the cut line where each pin outside the region sits.
func (e *engine) loadRegion(insts []int32, region geom.Rect, vertical bool) {
	e.epoch++
	epoch := e.epoch
	for _, i := range insts {
		e.instStamp[i] = epoch
	}
	// Number the nets touching the region in first-touch order (instances
	// ascending, each instance's nets ascending) while filling the cells'
	// rows of local net ids.
	core := &e.core
	core.reset(len(insts))
	e.netList = e.netList[:0]
	for k, i := range insts {
		core.netStart[k] = int32(len(core.cellNets))
		for _, ni := range e.netsOf(i) {
			if e.netStamp[ni] != epoch {
				e.netStamp[ni] = epoch
				e.netLocal[ni] = int32(len(e.netList))
				e.netList = append(e.netList, ni)
				core.nets = append(core.nets, fmNet{})
			}
			core.cellNets = append(core.cellNets, e.netLocal[ni])
		}
		core.cells[k] = fmCell{area: e.widths[i], side: e.side[i]}
	}
	core.netStart[len(insts)] = int32(len(core.cellNets))
	// Anchor each net on the sides of the cut line where its pins outside
	// the region sit; a net's anchors are settled once it has both.
	cut, coord := region.Center().Y, e.p.Y
	if vertical {
		cut, coord = region.Center().X, e.p.X
	}
	for li, ni := range e.netList {
		anc := &core.nets[li].anc
		for _, v := range e.netPins[e.netPinStart[ni]:e.netPinStart[ni+1]] {
			var x float64
			switch {
			case v < 0:
				x = e.ports[^v].Y
				if vertical {
					x = e.ports[^v].X
				}
			case e.instStamp[v] == epoch:
				continue
			default:
				x = coord[v]
			}
			anc[boolIdx(x >= cut)] = true
			if anc[0] && anc[1] {
				break
			}
		}
	}
	core.link()
}

// placeLeaf spreads a handful of cells, in index order, across the leaf
// region's rows.
func (e *engine) placeLeaf(insts []int32, region geom.Rect) {
	if len(insts) == 0 {
		return
	}
	rows := int(math.Max(1, math.Floor(region.H()/e.p.RowH)))
	perRow := (len(insts) + rows - 1) / rows
	for k, i := range insts {
		r := k / perRow
		c := k % perRow
		y := region.Lo.Y + (float64(r)+0.5)*e.p.RowH
		if y > region.Hi.Y {
			y = region.Center().Y
		}
		x := region.Lo.X + (float64(c)+0.5)*region.W()/float64(perRow)
		e.p.X[i] = x
		e.p.Y[i] = y
	}
}
