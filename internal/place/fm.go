package place

import (
	"math"
	"slices"

	"tmi3d/internal/geom"
	"tmi3d/internal/par"
)

// engine drives the recursive bisection. Its FM scratch is owned here and
// reused by every region: per-instance and per-net stamp arrays with an
// epoch counter stand in for per-region sets, so refining a region costs
// time proportional to the region, not the design.
type engine struct {
	p       *Placement
	widths  []float64
	noFM    bool
	workers int

	// netStart/nets hold each instance's nets as compressed rows: instance
	// i touches nets[netStart[i]:netStart[i+1]], ascending, clock excluded,
	// one entry per pin (duplicates kept).
	netStart []int32
	nets     []int32
	// side is the current bipartition side of each instance (true = B).
	side []bool
	// instStamp[i] == epoch marks instance i inside the region being
	// refined; netStamp[ni] == epoch marks net ni as collected, with local
	// id netLocal[ni].
	epoch     int32
	instStamp []int32
	netStamp  []int32
	netLocal  []int32
	// Region buffers, resliced per region and sized for the root region
	// (every instance, every net): the collected global net ids, their pin
	// states, and the flat backing of the FM core's cell→net and net→cell
	// lists with the net rows' offsets.
	netList  []int32
	states   []netState
	cellBuf  []int32
	pinBuf   []int32
	pinStart []int32
	core     fmCore
	// scratch holds one side of a region while bisect splits it in place.
	scratch []int32
}

// netState counts a net's pins inside the region per side and records
// whether it has an external anchor on either side.
type netState struct {
	cntA, cntB int
	ancA, ancB bool
}

// newEngine builds the instance→nets rows once and sizes the FM scratch.
func newEngine(p *Placement, widths []float64, noFM bool, workers int) *engine {
	d := p.Design
	n, m := len(d.Instances), len(d.Nets)
	pins := 0
	for i := range d.Instances {
		pins += len(d.Instances[i].Pins)
	}
	e := &engine{
		p: p, widths: widths, noFM: noFM, workers: workers,
		netStart:  make([]int32, n+1),
		nets:      make([]int32, 0, pins),
		side:      make([]bool, n),
		instStamp: make([]int32, n),
		netStamp:  make([]int32, m),
		netLocal:  make([]int32, m),
		netList:   make([]int32, 0, m),
		states:    make([]netState, m),
		cellBuf:   make([]int32, 0, pins),
		pinBuf:    make([]int32, pins),
		pinStart:  make([]int32, m+1),
		scratch:   make([]int32, n),
	}
	var row []int32
	for i := range d.Instances {
		e.netStart[i] = int32(len(e.nets))
		row = row[:0]
		for _, ni := range d.Instances[i].Pins {
			if ni != d.ClockNet {
				row = append(row, int32(ni))
			}
		}
		slices.Sort(row)
		e.nets = append(e.nets, row...)
	}
	e.netStart[n] = int32(len(e.nets))
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
	// Each shard writes the X/Y slots of its own instances only; below the
	// threshold the fleet isn't worth its spawn cost (the recursion visits
	// mostly small regions) and par.For degenerates to the same serial loop.
	centerWorkers := e.workers
	if len(insts) < 2048 {
		centerWorkers = 1
	}
	par.For(centerWorkers, len(insts), func(w, lo, hi int) {
		//tmi3dvet:parloop place.center
		for k := lo; k < hi; k++ {
			e.p.X[insts[k]] = cx
			e.p.Y[insts[k]] = cy
		}
	})
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

// fmRefine improves the region's initial bipartition (e.side) with a
// bounded Fiduccia–Mattheyses pass using anchor-aware cut gains.
func (e *engine) fmRefine(insts []int32, region geom.Rect, vertical bool, totalArea float64) {
	d := e.p.Design
	e.epoch++
	epoch := e.epoch
	for _, i := range insts {
		e.instStamp[i] = epoch
	}
	cutPos := region.Center().Y
	if vertical {
		cutPos = region.Center().X
	}
	sideOf := func(pt geom.Point) bool {
		if vertical {
			return pt.X >= cutPos
		}
		return pt.Y >= cutPos
	}

	// Collect the nets touching the region, numbered in first-touch order
	// (instances ascending, each instance's nets ascending).
	e.netList = e.netList[:0]
	for _, i := range insts {
		for _, ni := range e.netsOf(i) {
			if e.netStamp[ni] != epoch {
				e.netStamp[ni] = epoch
				e.netLocal[ni] = int32(len(e.netList))
				e.netList = append(e.netList, ni)
			}
		}
	}
	netList := e.netList
	states := e.states[:len(netList)]
	// Each net owns its states slot, so shards write disjoint entries;
	// positions, stamps and side assignments are only read.
	netWorkers := e.workers
	if len(netList) < 512 {
		netWorkers = 1
	}
	par.For(netWorkers, len(netList), func(pw, plo, phi int) {
		//tmi3dvet:parloop place.netstate
		for pk := plo; pk < phi; pk++ {
			st := &states[pk]
			*st = netState{}
			visit := func(inst int) {
				if inst < 0 {
					return
				}
				if e.instStamp[inst] == epoch {
					if e.side[inst] {
						st.cntB++
					} else {
						st.cntA++
					}
				} else {
					if sideOf(geom.Point{X: e.p.X[inst], Y: e.p.Y[inst]}) {
						st.ancB = true
					} else {
						st.ancA = true
					}
				}
			}
			net := &d.Nets[netList[pk]]
			if net.Driver.Inst >= 0 {
				visit(net.Driver.Inst)
			} else if pt, ok := e.p.Ports[net.Driver.Pin]; ok {
				if sideOf(pt) {
					st.ancB = true
				} else {
					st.ancA = true
				}
			}
			for _, s := range net.Sinks {
				if s.Inst >= 0 {
					visit(s.Inst)
				} else if pt, ok := e.p.Ports[s.Pin]; ok {
					if sideOf(pt) {
						st.ancB = true
					} else {
						st.ancA = true
					}
				}
			}
		}
	})

	// Build the FM core over local ids: each cell's local nets and each
	// net's local cells are sub-slices of two flat buffers, filled in cell
	// order. Then run bucket-based passes with best-prefix rollback.
	core := &e.core
	core.reset(len(insts), len(netList))
	for li := range netList {
		st := &states[li]
		core.nets[li] = fmNet{
			cnt: [2]int{st.cntA, st.cntB},
			anc: [2]bool{st.ancA, st.ancB},
		}
	}
	cellBuf := e.cellBuf[:0]
	pinStart := e.pinStart[:len(netList)+1]
	clear(pinStart)
	for k, i := range insts {
		lo := len(cellBuf)
		for _, ni := range e.netsOf(i) {
			li := e.netLocal[ni]
			cellBuf = append(cellBuf, li)
			pinStart[li+1]++
		}
		core.cells[k] = cellBuf[lo:]
		core.side[k] = e.side[i]
		core.area[k] = e.widths[i]
		if !e.side[i] {
			core.areaA += e.widths[i]
		}
		core.totArea += e.widths[i]
	}
	for li := 1; li < len(pinStart); li++ {
		pinStart[li] += pinStart[li-1]
	}
	// Each net's pin list starts empty with exactly its row's capacity, so
	// the appends below fill pinBuf in place, in cell order.
	for li := range core.nets {
		core.nets[li].pins = e.pinBuf[pinStart[li]:pinStart[li]:pinStart[li+1]]
	}
	for k := range insts {
		for _, li := range core.cells[k] {
			core.nets[li].pins = append(core.nets[li].pins, int32(k))
		}
	}
	lo, hi := 0.42*totalArea, 0.58*totalArea
	for pass := 0; pass < 3; pass++ {
		if core.runPass(lo, hi) <= 0 {
			break
		}
	}
	for k, i := range insts {
		e.side[i] = core.side[k]
	}
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
