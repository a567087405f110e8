package route

import (
	"math"
	"sort"

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
	// segsByNet stores the committed segments for rip-up.
	segsByNet map[int][]seg
	// ov is the routing net's own overlay, reused by every net.
	ov overlay
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

func (ov *overlay) at(dir, class, edge int) float64 {
	return float64(ov.usage[dir][class][edge])
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

// netResult is one net's routing outcome before commit: the route metrics
// plus the segments whose usage the commit step folds into the shared grid.
type netResult struct {
	route NetRoute
	segs  []seg
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

// walk visits the edges of an L path.
func (g *grid) walk(s seg, f func(dir, edge int)) {
	x1, y1, x2, y2 := int(s.x1), int(s.y1), int(s.x2), int(s.y2)
	hseg := func(y, xa, xb int) {
		if xa > xb {
			xa, xb = xb, xa
		}
		for x := xa; x < xb; x++ {
			f(0, g.hEdge(x, y))
		}
	}
	vseg := func(x, ya, yb int) {
		if ya > yb {
			ya, yb = yb, ya
		}
		for y := ya; y < yb; y++ {
			f(1, g.vEdge(x, y))
		}
	}
	if s.hFirst {
		hseg(y1, x1, x2)
		vseg(x2, y1, y2)
	} else {
		vseg(x1, y1, y2)
		hseg(y2, x1, x2)
	}
}

// edgeCost prices one edge for a class given its effective usage (shared
// grid plus the routing net's own overlay), strongly penalizing overflow.
func (g *grid) edgeCost(dir, class int, u float64) float64 {
	capc := g.cap[dir][class]
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

// pathCost prices a candidate segment on a class against the frozen grid
// plus the net's overlay.
func (g *grid) pathCost(s seg, ov *overlay) float64 {
	cost := 0.0
	g.walk(s, func(dir, edge int) {
		u := float64(g.usage[dir][int(s.class)][edge]) + ov.at(dir, int(s.class), edge)
		cost += g.edgeCost(dir, int(s.class), u)
	})
	return cost
}

func (g *grid) apply(s seg, delta float32) {
	g.walk(s, func(dir, edge int) {
		g.usage[dir][int(s.class)][edge] += delta
	})
}

// routeNetFrozen routes one net against the shared congestion grid as
// frozen at the start of its chunk. The net's own mid-route commits go to
// the router's overlay (each 2-pin connection must see the previous ones);
// the chunk's commit step folds the returned segments into the grid in net
// order.
func (r *router) routeNetFrozen(ni int) netResult {
	d := r.p.Design
	net := &d.Nets[ni]
	g := r.g

	// Pin points and gcells.
	type pin struct {
		pt   geom.Point
		x, y int
	}
	pins := make([]pin, 0, len(net.Sinks)+1)
	addPin := func(ref netlist.PinRef) {
		pt := r.p.PinPoint(ref)
		x, y := g.cellOf(pt)
		pins = append(pins, pin{pt, x, y})
	}
	addPin(net.Driver)
	for _, s := range net.Sinks {
		addPin(s)
	}

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
		return netResult{route: route}
	}
	ov := &r.ov
	defer ov.reset()

	// Prim-style 2-pin decomposition over gcell positions. Nodes carry the
	// real coordinates of the point they stand for (pin location, or gcell
	// center for Steiner bends) so reported lengths are not quantized to
	// whole gcells — short nets keep their true sub-gcell lengths.
	type node struct {
		x, y   int
		px, py float64
	}
	connected := []node{{pins[0].x, pins[0].y, pins[0].pt.X, pins[0].pt.Y}}
	remaining := append([]pin{}, pins[1:]...)
	sort.Slice(remaining, func(a, b int) bool {
		da := abs(remaining[a].x-pins[0].x) + abs(remaining[a].y-pins[0].y)
		db := abs(remaining[b].x-pins[0].x) + abs(remaining[b].y-pins[0].y)
		if da != db {
			return da < db
		}
		return remaining[a].pt.X < remaining[b].pt.X
	})

	var segs []seg
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
		var cands []seg
		for _, hf := range []bool{true, false} {
			for cl := lo; cl <= hi; cl++ {
				cands = append(cands, seg{
					x1: int16(best.x), y1: int16(best.y),
					x2: int16(pn.x), y2: int16(pn.y),
					hFirst: hf, class: int8(cl),
				})
			}
		}
		bestSeg := cands[0]
		bestCost := math.Inf(1)
		for i, c := range cands {
			cost := g.pathCost(c, ov)
			// Prefer the natural class on ties; off-class detours pay a
			// small premium (extra vias, worse RC fit).
			cost += float64(i) * 1e-6
			if int(c.class) != int(natural) {
				cost += 0.5
			}
			if cost < bestCost {
				bestCost = cost
				bestSeg = c
			}
		}
		g.walk(bestSeg, func(dir, edge int) {
			ov.add(dir, int(bestSeg.class), edge)
		})
		segs = append(segs, bestSeg)
		cl := tech.LayerClass(bestSeg.class)
		// Congestion detour: when the chosen path crosses overloaded edges,
		// the detailed router must snake around the hotspots, lengthening
		// the wire. Model the inflation by the overflowed fraction of the
		// path — this is what makes the congestion-limited 2D designs pay
		// extra wirelength that the taller T-MI stack avoids (Section 3.3).
		edges, over := 0, 0
		g.walk(bestSeg, func(dir, edge int) {
			edges++
			capc := g.cap[dir][int(bestSeg.class)]
			u := float64(g.usage[dir][int(bestSeg.class)][edge]) + ov.at(dir, int(bestSeg.class), edge)
			if capc > 0 && u > capc {
				over++
			}
		})
		if edges > 0 && over > 0 && !r.noDetour {
			lenUm *= 1 + 0.3*float64(over)/float64(edges)
		}
		route.Len += lenUm
		route.LenByClass[cl] += lenUm
		route.Vias += 2
		if cl > maxClass {
			maxClass = cl
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
	route.Class = maxClass
	return netResult{route: route, segs: segs}
}

// isCongested reports whether any edge of the net's route is over capacity.
func (r *router) isCongested(ni int) bool {
	for _, s := range r.segsByNet[ni] {
		over := false
		r.g.walk(s, func(dir, edge int) {
			capc := r.g.cap[dir][int(s.class)]
			if capc > 0 && float64(r.g.usage[dir][int(s.class)][edge]) > capc {
				over = true
			}
		})
		if over {
			return true
		}
	}
	return false
}

// ripUp removes a net's committed usage.
func (r *router) ripUp(ni int) {
	for _, s := range r.segsByNet[ni] {
		r.g.apply(s, -1)
	}
	delete(r.segsByNet, ni)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
