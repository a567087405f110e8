package route

import (
	"cmp"
	"math"
	"slices"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/tech"
)

// seg is one routed two-pin connection: an L (or degenerate straight) path
// from (x1,y1) to (x2,y2) in gcell coordinates, taking the horizontal run
// first when hFirst is set, on the given layer class.
type seg struct {
	x1, y1, x2, y2 int16
	hFirst         bool
	class          int8
}

type router struct {
	g        *grid
	p        *place.Placement
	noDetour bool
	// segsByNet stores each net's committed segments for rip-up, indexed by
	// net. ripUp truncates a net's slice, so its reroute reuses the backing
	// array.
	segsByNet [][]seg
	// ov is the routing net's own overlay, reused by every net.
	ov overlay
	// pins and connected are the 2-pin decomposition's scratch, reused by
	// every net.
	pins      []pin
	connected []node
}

// pin is one net pin: its location and its gcell.
type pin struct {
	pt   geom.Point
	x, y int
}

// node is a connected point of the net being routed: its gcell plus the
// real coordinates it stands for (pin location, or gcell center for Steiner
// bends), so reported lengths are not quantized to whole gcells.
type node struct {
	x, y   int
	px, py float64
}

// overlay is the usage a net has committed itself mid-route, layered over
// the frozen shared grid: shaped like grid.usage, with the edges it touched
// listed so reset clears only those.
type overlay struct {
	usage   [2][NumClasses][]float32
	touched []ovEdge
}

type ovEdge struct {
	dir, class int8
	edge       int32
}

func (ov *overlay) add(dir, class, edge int) {
	u := &ov.usage[dir][class][edge]
	if *u == 0 {
		ov.touched = append(ov.touched, ovEdge{int8(dir), int8(class), int32(edge)})
	}
	*u++
}

func (ov *overlay) reset() {
	for _, e := range ov.touched {
		ov.usage[e.dir][e.class][e.edge] = 0
	}
	ov.touched = ov.touched[:0]
}

// classForLen picks the natural layer class for a segment length in µm —
// short nets stay local, long nets climb the stack (Section S9 / Fig 10).
func classForLen(lenUm float64, pitch float64) tech.LayerClass {
	switch {
	case lenUm <= 1.2*pitch:
		return tech.ClassLocal
	case lenUm <= 12*pitch:
		return tech.ClassIntermediate
	default:
		return tech.ClassGlobal
	}
}

// leg is one straight run of an L path: n edges of direction dir, the
// first at index e0 and each next one stride further on — 1 along a
// horizontal run, gx along a vertical one (see hEdge and vEdge).
type leg struct {
	dir, e0, stride, n int
}

// legs splits s into its two runs in walk order — horizontal then vertical
// when hFirst is set, vertical then horizontal otherwise — each running from
// its lower coordinate up. Every per-edge sum over a path follows this order,
// which fixes its floating-point value.
func (g *grid) legs(s seg) [2]leg {
	x1, y1, x2, y2 := int(s.x1), int(s.y1), int(s.x2), int(s.y2)
	hy, vx := y1, x2
	if !s.hFirst {
		hy, vx = y2, x1
	}
	h := leg{dir: 0, e0: g.hEdge(min(x1, x2), hy), stride: 1, n: abs(x2 - x1)}
	v := leg{dir: 1, e0: g.vEdge(vx, min(y1, y2)), stride: g.gx, n: abs(y2 - y1)}
	if s.hFirst {
		return [2]leg{h, v}
	}
	return [2]leg{v, h}
}

// edgeCost prices one edge of capacity capc given its effective usage
// (shared grid plus the routing net's own overlay), strongly penalizing
// overflow.
func edgeCost(capc, u float64) float64 {
	if capc <= 0 {
		return 1e6
	}
	r := u / capc
	if r < 0.8 {
		return 1 + 0.2*r
	}
	if r < 1.0 {
		return 1 + 2*(r-0.8)*5
	}
	return 4 + 8*(r-1)*(r-1)*capc
}

// price walks one L orientation's legs once and adds each edge's cost on
// class lo+c to cost[c], against the frozen grid plus the net's overlay.
// Every class sums its edges in walk order, so each total is bit-identical
// to pricing that class's path on its own.
func (g *grid) price(ls [2]leg, ov *overlay, lo int, cost []float64) {
	var capc [3]float64
	var gu, ou [3][]float32
	for _, l := range ls {
		for c := range cost {
			capc[c] = g.cap[l.dir][lo+c]
			gu[c], ou[c] = g.usage[l.dir][lo+c], ov.usage[l.dir][lo+c]
		}
		for k, e := 0, l.e0; k < l.n; k, e = k+1, e+l.stride {
			for c := range cost {
				cost[c] += edgeCost(capc[c], float64(gu[c][e])+float64(ou[c][e]))
			}
		}
	}
}

func (g *grid) apply(s seg, delta float32) {
	for _, l := range g.legs(s) {
		gu := g.usage[l.dir][s.class]
		for k, e := 0, l.e0; k < l.n; k, e = k+1, e+l.stride {
			gu[e] += delta
		}
	}
}

// routeNetFrozen routes one net against the shared congestion grid as
// frozen at the start of its chunk and leaves its segments in
// r.segsByNet[ni]. The net's own mid-route commits go to the router's
// overlay (each 2-pin connection must see the previous ones); the chunk's
// commit step folds the segments into the grid in net order.
func (r *router) routeNetFrozen(ni int) NetRoute {
	d := r.p.Design
	net := &d.Nets[ni]
	g := r.g

	// Pin points and gcells.
	pins := r.pins[:0]
	addPin := func(ref netlist.PinRef) {
		pt := r.p.PinPoint(ref)
		x, y := g.cellOf(pt)
		pins = append(pins, pin{pt, x, y})
	}
	addPin(net.Driver)
	for _, s := range net.Sinks {
		addPin(s)
	}
	r.pins = pins

	route := NetRoute{Vias: 2}
	// Intra-gcell net: local wiring only (M1/MB1 class).
	allSame := true
	for _, p := range pins[1:] {
		if p.x != pins[0].x || p.y != pins[0].y {
			allSame = false
			break
		}
	}
	if allSame {
		l := 0.0
		for _, p := range pins[1:] {
			l += p.pt.ManhattanDist(pins[0].pt)
		}
		if l < 1.0 {
			l = 1.0
		}
		route.Len = l
		route.LenByClass[tech.ClassM1] = l
		route.Class = tech.ClassM1
		return route
	}
	ov := &r.ov
	defer ov.reset()

	// Prim-style 2-pin decomposition over gcell positions, connecting the
	// sinks nearest-first. Pins can tie on (distance, X), and pdqsort is not
	// stable: slices.SortFunc runs the same pdqsort as sort.Slice, which
	// experiments_full.txt and the golden digests were generated under, so
	// tied pins keep that permutation.
	connected := append(r.connected[:0], node{pins[0].x, pins[0].y, pins[0].pt.X, pins[0].pt.Y})
	x0, y0 := pins[0].x, pins[0].y
	remaining := pins[1:]
	slices.SortFunc(remaining, func(a, b pin) int {
		da := abs(a.x-x0) + abs(a.y-y0)
		db := abs(b.x-x0) + abs(b.y-y0)
		if da != db {
			return cmp.Compare(da, db)
		}
		switch {
		case a.pt.X < b.pt.X:
			return -1
		case a.pt.X > b.pt.X:
			return 1
		}
		return 0
	})

	segs := r.segsByNet[ni][:0]
	maxClass := tech.ClassM1
	for _, pn := range remaining {
		// Closest connected node.
		best := connected[0]
		bd := abs(pn.x-best.x) + abs(pn.y-best.y)
		for _, c := range connected[1:] {
			if d := abs(pn.x-c.x) + abs(pn.y-c.y); d < bd {
				best, bd = c, d
			}
		}
		if bd == 0 {
			l := math.Abs(pn.pt.X-best.px) + math.Abs(pn.pt.Y-best.py)
			if l < 0.5 {
				l = 0.5
			}
			connected = append(connected, node{pn.x, pn.y, pn.pt.X, pn.pt.Y})
			route.Len += l
			route.LenByClass[tech.ClassM1] += l
			continue
		}
		lenUm := math.Abs(pn.pt.X-best.px) + math.Abs(pn.pt.Y-best.py)
		natural := classForLen(lenUm, g.pitch)

		// Candidates: both L orientations × {one class below, natural, one
		// above}. Downward spill lets long nets fall back onto the local
		// layers when the thin intermediate/global stack saturates — this is
		// how the extra T-MI local layers absorb congestion (Section 3.3).
		lo := natural
		if lo > tech.ClassLocal {
			lo--
		}
		hi := natural + 1
		if hi > tech.ClassGlobal {
			hi = tech.ClassGlobal
		}
		nc := int(hi-lo) + 1
		var cands [6]seg
		var costs [6]float64
		for o, hf := range [2]bool{true, false} {
			s := seg{
				x1: int16(best.x), y1: int16(best.y),
				x2: int16(pn.x), y2: int16(pn.y),
				hFirst: hf,
			}
			for c := 0; c < nc; c++ {
				s.class = int8(int(lo) + c)
				cands[o*nc+c] = s
			}
			g.price(g.legs(s), ov, int(lo), costs[o*nc:(o+1)*nc])
		}
		bestSeg := cands[0]
		bestCost := math.Inf(1)
		for i, c := range cands[:2*nc] {
			// Prefer the natural class on ties; off-class detours pay a
			// small premium (extra vias, worse RC fit).
			cost := costs[i] + float64(i)*1e-6
			if int(c.class) != int(natural) {
				cost += 0.5
			}
			if cost < bestCost {
				bestCost = cost
				bestSeg = c
			}
		}
		segs = append(segs, bestSeg)
		cl := int(bestSeg.class)
		// Commit the segment to the overlay, counting the edges it leaves
		// over capacity (an L path never visits an edge twice, so each
		// count sees the overlay as the whole commit leaves it).
		//
		// Congestion detour: when the chosen path crosses overloaded edges,
		// the detailed router must snake around the hotspots, lengthening
		// the wire. Model the inflation by the overflowed fraction of the
		// path — this is what makes the congestion-limited 2D designs pay
		// extra wirelength that the taller T-MI stack avoids (Section 3.3).
		edges, over := 0, 0
		for _, l := range g.legs(bestSeg) {
			capc := g.cap[l.dir][cl]
			gu, ou := g.usage[l.dir][cl], ov.usage[l.dir][cl]
			for k, e := 0, l.e0; k < l.n; k, e = k+1, e+l.stride {
				ov.add(l.dir, cl, e)
				if capc > 0 && float64(gu[e])+float64(ou[e]) > capc {
					over++
				}
			}
			edges += l.n
		}
		if edges > 0 && over > 0 && !r.noDetour {
			lenUm *= 1 + 0.3*float64(over)/float64(edges)
		}
		route.Len += lenUm
		route.LenByClass[cl] += lenUm
		route.Vias += 2
		if tech.LayerClass(cl) > maxClass {
			maxClass = tech.LayerClass(cl)
		}
		connected = append(connected, node{pn.x, pn.y, pn.pt.X, pn.pt.Y})
		if bestSeg.x1 != bestSeg.x2 && bestSeg.y1 != bestSeg.y2 {
			route.Vias++ // bend
			bx, by := int(bestSeg.x2), int(bestSeg.y1)
			if !bestSeg.hFirst {
				bx, by = int(bestSeg.x1), int(bestSeg.y2)
			}
			connected = append(connected, node{bx, by,
				g.die.Lo.X + (float64(bx)+0.5)*g.pitch,
				g.die.Lo.Y + (float64(by)+0.5)*g.pitch})
		}
	}
	r.connected = connected
	r.segsByNet[ni] = segs
	route.Class = maxClass
	return route
}

// isCongested reports whether any edge of the net's route is over capacity.
func (r *router) isCongested(ni int) bool {
	for _, s := range r.segsByNet[ni] {
		for _, l := range r.g.legs(s) {
			capc := r.g.cap[l.dir][s.class]
			if capc <= 0 {
				continue
			}
			gu := r.g.usage[l.dir][s.class]
			for k, e := 0, l.e0; k < l.n; k, e = k+1, e+l.stride {
				if float64(gu[e]) > capc {
					return true
				}
			}
		}
	}
	return false
}

// ripUp removes a net's committed usage and truncates its segments.
func (r *router) ripUp(ni int) {
	for _, s := range r.segsByNet[ni] {
		r.g.apply(s, -1)
	}
	r.segsByNet[ni] = r.segsByNet[ni][:0]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
