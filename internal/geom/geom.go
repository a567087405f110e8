// Package geom provides the layout-geometry primitives shared by the cell
// generator, the parasitic extractor and the routers.
//
// Unit conventions used throughout the repository:
//
//	distance     micrometers (µm)
//	resistance   ohms (Ω)
//	capacitance  femtofarads (fF)
//	time         picoseconds (ps)  — note τ(ps) = R(Ω)·C(fF)/1000
//	voltage      volts (V)
//	energy       femtojoules (fJ)
//	power        milliwatts (mW) at chip level, fJ per event at cell level
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the layout plane, in µm.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Lo ≤ Hi in both axes.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a normalized rectangle from two corner coordinates.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Hi.X - r.Lo.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r in µm².
func (r Rect) Area() float64 { return r.W() * r.H() }

// Perimeter returns the perimeter of r in µm.
func (r Rect) Perimeter() float64 { return 2 * (r.W() + r.H()) }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Translate returns r shifted by d.
func (r Rect) Translate(d Point) Rect {
	return Rect{r.Lo.Add(d), r.Hi.Add(d)}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// Intersects reports whether r and s share any area or boundary.
func (r Rect) Intersects(s Rect) bool {
	return r.Lo.X <= s.Hi.X && s.Lo.X <= r.Hi.X && r.Lo.Y <= s.Hi.Y && s.Lo.Y <= r.Hi.Y
}

// Intersection returns the overlap of r and s; ok is false when they are disjoint.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	lo := Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)}
	hi := Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)}
	if lo.X > hi.X || lo.Y > hi.Y {
		return Rect{}, false
	}
	return Rect{lo, hi}, true
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// Expand returns r grown by d on every side (shrunk when d is negative).
func (r Rect) Expand(d float64) Rect {
	return NewRect(r.Lo.X-d, r.Lo.Y-d, r.Hi.X+d, r.Hi.Y+d)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

// BBox returns the bounding box of the given points; ok is false for no points.
func BBox(pts []Point) (Rect, bool) {
	if len(pts) == 0 {
		return Rect{}, false
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r, true
}

// HPWL returns the half-perimeter wirelength of the bounding box of pts.
func HPWL(pts []Point) float64 {
	r, ok := BBox(pts)
	if !ok {
		return 0
	}
	return r.W() + r.H()
}

// Shape is a rectangle on a named layout layer, optionally tagged with the
// electrical node it belongs to (used by the extractor).
type Shape struct {
	Layer string
	R     Rect
	Net   string
}

func (s Shape) String() string {
	return fmt.Sprintf("%s %s net=%q", s.Layer, s.R, s.Net)
}
