package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.ManhattanDist(q); !almostEq(got, 5, 1e-12) {
		t.Errorf("ManhattanDist = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{3, 4}) {
		t.Fatalf("NewRect not normalized: %v", r)
	}
	if r.W() != 2 || r.H() != 2 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if r.Area() != 4 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Perimeter() != 8 {
		t.Errorf("Perimeter = %v", r.Perimeter())
	}
	if r.Center() != (Point{2, 3}) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 5)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},
		{Point{10, 5}, true},
		{Point{10.01, 5}, false},
		{Point{-1, 2}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if got != NewRect(2, 2, 4, 4) {
		t.Errorf("Intersection = %v", got)
	}
	c := NewRect(5, 5, 7, 7)
	if _, ok := a.Intersection(c); ok {
		t.Error("expected disjoint")
	}
	if a.Intersects(c) {
		t.Error("Intersects should be false for disjoint rects")
	}
	// Touching rectangles intersect (shared boundary).
	d := NewRect(4, 0, 8, 4)
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(3, -1, 4, 2)
	u := a.Union(b)
	if u != NewRect(0, -1, 4, 2) {
		t.Errorf("Union = %v", u)
	}
	e := a.Expand(0.5)
	if e != NewRect(-0.5, -0.5, 1.5, 1.5) {
		t.Errorf("Expand = %v", e)
	}
}

func TestBBoxAndHPWL(t *testing.T) {
	if _, ok := BBox(nil); ok {
		t.Error("BBox of no points should report !ok")
	}
	pts := []Point{{1, 1}, {4, 3}, {2, 7}}
	r, ok := BBox(pts)
	if !ok || r != NewRect(1, 1, 4, 7) {
		t.Fatalf("BBox = %v ok=%v", r, ok)
	}
	if got := HPWL(pts); !almostEq(got, 3+6, 1e-12) {
		t.Errorf("HPWL = %v", got)
	}
	if HPWL(nil) != 0 {
		t.Error("HPWL of no points should be 0")
	}
	if HPWL([]Point{{2, 2}}) != 0 {
		t.Error("HPWL of a single point should be 0")
	}
}

// Property: intersection area is never larger than either operand, and union
// always contains both operands.
func TestRectProperties(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 float64) bool {
		// Constrain to finite, reasonable values.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := NewRect(clamp(x0), clamp(y0), clamp(x1), clamp(y1))
		b := NewRect(clamp(x2), clamp(y2), clamp(x3), clamp(y3))
		u := a.Union(b)
		if !u.Contains(a.Lo) || !u.Contains(a.Hi) || !u.Contains(b.Lo) || !u.Contains(b.Hi) {
			return false
		}
		if in, ok := a.Intersection(b); ok {
			if in.Area() > a.Area()+1e-9 || in.Area() > b.Area()+1e-9 {
				return false
			}
			if !a.Intersects(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: HPWL is translation-invariant.
func TestHPWLTranslationInvariant(t *testing.T) {
	f := func(xs [6]float64, dx, dy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e4)
		}
		pts := make([]Point, 3)
		for i := range pts {
			pts[i] = Point{clamp(xs[2*i]), clamp(xs[2*i+1])}
		}
		d := Point{clamp(dx), clamp(dy)}
		moved := make([]Point, len(pts))
		for i, p := range pts {
			moved[i] = p.Add(d)
		}
		return almostEq(HPWL(pts), HPWL(moved), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
