// Package route implements congestion-driven global routing on a gcell grid
// with tier-aware layer assignment — the Cadence Encounter NanoRoute stage
// of the paper's flow. Each routing-layer class (local / intermediate /
// global, Table 3) contributes per-edge track capacity; segments are
// assigned to classes by length and spill upward under congestion, with
// rip-up-and-reroute passes using L and Z patterns.
//
// T-MI stacks carry three extra local layers (plus MB1), which is exactly
// what absorbs their ~1.7-2X higher pin density (Section 3.3); the T-MI+M
// variant trades local for intermediate capacity (Table 17).
package route

import (
	"fmt"
	"math"
	"sort"

	"tmi3d/internal/geom"
	"tmi3d/internal/place"
	"tmi3d/internal/tech"
)

// NumClasses indexes the per-class arrays by tech.LayerClass.
const NumClasses = 4

// Options configures routing.
type Options struct {
	Tech *tech.Technology
	// GcellTracks sets the gcell pitch in local-layer routing tracks
	// (default 40).
	GcellTracks int
	// Iterations is the number of rip-up-and-reroute passes (default 2).
	Iterations int
	// NoDetour disables the congestion detour-length model (ablation).
	NoDetour bool
}

// routeChunk is the number of nets routed against one frozen grid snapshot
// before their usage is committed in net order. The chunking is part of the
// algorithm, not an execution detail: experiments_full.txt and the golden
// digests were generated under 64-net frozen chunks.
const routeChunk = 64

// NetRoute describes one routed net.
type NetRoute struct {
	// Len is the total routed wirelength, µm.
	Len float64
	// LenByClass splits Len across layer classes.
	LenByClass [NumClasses]float64
	// Vias counts layer changes (including pin access).
	Vias int
	// Class is the dominant layer class of the net.
	Class tech.LayerClass
}

// Result is a completed routing.
type Result struct {
	Routes     []NetRoute
	TotalLen   float64 // µm
	LenByClass [NumClasses]float64
	// Overflow counts edge-class demand beyond capacity after the final
	// pass (congestion hotspots that detoured or spilled).
	Overflow int
	// MaxCongestion is the peak usage/capacity ratio over edges.
	MaxCongestion float64
	GX, GY        int
	Pitch         float64
}

type grid struct {
	gx, gy int
	pitch  float64
	die    geom.Rect
	// capacity and usage per direction (0=horizontal edge, 1=vertical edge)
	// and class: index [dir][class][edge].
	cap   [2][NumClasses]float64 // per-edge capacity by class (uniform)
	usage [2][NumClasses][]float32
}

func (g *grid) hEdge(x, y int) int { return y*(g.gx-1) + x } // between (x,y)-(x+1,y)
func (g *grid) vEdge(x, y int) int { return y*g.gx + x }     // between (x,y)-(x,y+1)

func (g *grid) clampX(x int) int {
	if x < 0 {
		return 0
	}
	if x >= g.gx {
		return g.gx - 1
	}
	return x
}

func (g *grid) clampY(y int) int {
	if y < 0 {
		return 0
	}
	if y >= g.gy {
		return g.gy - 1
	}
	return y
}

func (g *grid) cellOf(p geom.Point) (int, int) {
	x := int((p.X - g.die.Lo.X) / g.pitch)
	y := int((p.Y - g.die.Lo.Y) / g.pitch)
	return g.clampX(x), g.clampY(y)
}

// blockage factors: the local layers lose capacity to cell pins and
// internal wiring; upper layers are nearly free.
var blockage = [NumClasses]float64{
	tech.ClassM1:           0.20,
	tech.ClassLocal:        0.55,
	tech.ClassIntermediate: 0.90,
	tech.ClassGlobal:       1.00,
}

// Run routes every net of the placed design.
func Run(p *place.Placement, opt Options) (*Result, error) {
	if opt.Tech == nil {
		return nil, fmt.Errorf("route: technology required")
	}
	tracks := opt.GcellTracks
	if tracks == 0 {
		tracks = 40
	}
	iters := opt.Iterations
	if iters == 0 {
		iters = 2
	}
	localPitch := 2 * opt.Tech.Layer("M2").Pitch()
	pitch := float64(tracks) * localPitch / 2
	g := &grid{die: p.Die, pitch: pitch}
	g.gx = int(math.Ceil(p.Die.W()/pitch)) + 1
	g.gy = int(math.Ceil(p.Die.H()/pitch)) + 1
	if g.gx < 2 {
		g.gx = 2
	}
	if g.gy < 2 {
		g.gy = 2
	}

	// Per-edge capacity by class: tracks per gcell per layer, split by
	// preferred direction.
	for _, l := range opt.Tech.Layers {
		if l.Pitch() <= 0 {
			continue
		}
		c := pitch / l.Pitch() * blockage[l.Class]
		dir := 1 // vertical wires cross horizontal cuts... wires run along edges:
		if l.Horizontal {
			dir = 0
		}
		g.cap[dir][l.Class] += c
	}
	for dir := 0; dir < 2; dir++ {
		n := (g.gx - 1) * g.gy
		if dir == 1 {
			n = g.gx * (g.gy - 1)
		}
		for c := 0; c < NumClasses; c++ {
			g.usage[dir][c] = make([]float32, n)
		}
	}

	d := p.Design
	res := &Result{
		Routes: make([]NetRoute, len(d.Nets)),
		GX:     g.gx, GY: g.gy, Pitch: pitch,
	}

	// Net routing order: short nets first (they claim local resources).
	type netOrd struct {
		ni   int
		hpwl float64
	}
	var order []netOrd
	for ni := range d.Nets {
		if ni == d.ClockNet || len(d.Nets[ni].Sinks) == 0 {
			continue
		}
		order = append(order, netOrd{ni, p.NetHPWL(ni)})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].hpwl != order[b].hpwl {
			return order[a].hpwl < order[b].hpwl
		}
		return order[a].ni < order[b].ni
	})

	r := &router{g: g, p: p, noDetour: opt.NoDetour, segsByNet: make(map[int][]seg)}
	for dir := range r.ov.usage {
		for c := range r.ov.usage[dir] {
			r.ov.usage[dir][c] = make([]float32, len(g.usage[dir][c]))
		}
	}
	results := make([]netResult, routeChunk)
	for pass := 0; pass < iters; pass++ {
		// Pick this pass's work list up front, against the grid as the
		// previous pass left it: every net on the first pass, only the
		// congested ones later. Rip-ups are then batched before rerouting —
		// the congestion decision and the reroutes all see one coherent
		// grid.
		active := order
		if pass > 0 {
			active = active[:0:0]
			for _, no := range order {
				if r.isCongested(no.ni) {
					active = append(active, no)
				}
			}
			for _, no := range active {
				r.ripUp(no.ni)
			}
		}
		// Route in fixed-size chunks: every net of a chunk routes against the
		// grid as frozen at the chunk boundary, then the chunk's usage is
		// committed in net order.
		for lo := 0; lo < len(active); lo += routeChunk {
			chunk := active[lo:min(lo+routeChunk, len(active))]
			for k := range chunk {
				results[k] = r.routeNetFrozen(chunk[k].ni)
			}
			for k := range chunk {
				ni := chunk[k].ni
				for _, s := range results[k].segs {
					g.apply(s, 1)
				}
				r.segsByNet[ni] = results[k].segs
				res.Routes[ni] = results[k].route
			}
		}
	}

	for ni := range res.Routes {
		res.TotalLen += res.Routes[ni].Len
		for c := 0; c < NumClasses; c++ {
			res.LenByClass[c] += res.Routes[ni].LenByClass[c]
		}
	}
	res.Overflow, res.MaxCongestion = g.overflow()
	return res, nil
}

// overflow sums demand beyond capacity over all edges and classes.
func (g *grid) overflow() (int, float64) {
	total := 0
	maxC := 0.0
	for dir := 0; dir < 2; dir++ {
		for c := 0; c < NumClasses; c++ {
			capc := g.cap[dir][c]
			if capc <= 0 {
				continue
			}
			for _, u := range g.usage[dir][c] {
				r := float64(u) / capc
				if r > maxC {
					maxC = r
				}
				if float64(u) > capc {
					total += int(float64(u) - capc)
				}
			}
		}
	}
	return total, maxC
}
