// Package cts estimates a clock distribution network over the placed
// sequential cells: a recursive median-split tree (H-tree-like) with clock
// buffers at the internal nodes. The flow treats the clock as ideal for
// timing (zero skew) but charges the tree's wire capacitance and buffer
// energy in the power report — the clock network shrinks with the T-MI
// footprint exactly like signal wiring does.
package cts

import (
	"sort"

	"tmi3d/internal/geom"
	"tmi3d/internal/place"
)

// Result summarizes the synthesized clock tree.
type Result struct {
	Wirelength float64 // µm of clock routing
	NumBuffers int
	Levels     int
	NumSinks   int
}

// Build constructs the clock tree for all DFF clock pins. maxFanout bounds
// the sinks (or subtrees) one buffer drives (default 24).
func Build(p *place.Placement, maxFanout int) *Result {
	if maxFanout <= 0 {
		maxFanout = 24
	}
	d := p.Design
	var sinks []geom.Point
	for i := range d.Instances {
		if d.Instances[i].Func != "DFF" {
			continue
		}
		if _, ok := d.Instances[i].Pins.Net("CK"); ok {
			sinks = append(sinks, geom.Point{X: p.X[i], Y: p.Y[i]})
		}
	}
	res := &Result{NumSinks: len(sinks)}
	if len(sinks) == 0 {
		return res
	}
	root := p.Die.Center()
	res.Levels = buildNode(res, sinks, root, maxFanout, true, 0)
	return res
}

// buildNode recursively splits the sink set, adds a buffer per node, and
// accumulates wirelength; returns the subtree depth.
func buildNode(res *Result, sinks []geom.Point, from geom.Point, maxFanout int, vertical bool, depth int) int {
	c := centroid(sinks)
	res.Wirelength += from.ManhattanDist(c)
	if len(sinks) <= maxFanout {
		// Leaf buffer drives the sinks directly.
		res.NumBuffers++
		for _, s := range sinks {
			res.Wirelength += c.ManhattanDist(s)
		}
		return depth + 1
	}
	res.NumBuffers++
	// Median split along the alternating axis.
	sorted := make([]geom.Point, len(sinks))
	copy(sorted, sinks)
	if vertical {
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].X < sorted[b].X })
	} else {
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Y < sorted[b].Y })
	}
	mid := len(sorted) / 2
	d1 := buildNode(res, sorted[:mid], c, maxFanout, !vertical, depth+1)
	d2 := buildNode(res, sorted[mid:], c, maxFanout, !vertical, depth+1)
	if d2 > d1 {
		return d2
	}
	return d1
}

func centroid(pts []geom.Point) geom.Point {
	var x, y float64
	for _, p := range pts {
		x += p.X
		y += p.Y
	}
	n := float64(len(pts))
	return geom.Point{X: x / n, Y: y / n}
}
