// Package liberty builds and holds the NLDM timing/power libraries of the
// study — the role of the characterized Liberty files produced by Cadence
// Encounter Library Characterizer in the paper's flow (Section 3.2).
//
// A Library exists per (process node, design mode): the 45nm libraries are
// characterized by running the internal/spice simulator on the extracted
// transistor netlists of every cell function over an input-slew × output-load
// grid; the 7nm libraries are derived from the 45nm ones with the scaling
// factors of Section S3, exactly as the paper does.
package liberty

import (
	"fmt"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/tech"
)

// LUT is a 2-D lookup table indexed by input slew (rows) and output load
// (columns), with bilinear interpolation and linear edge extrapolation.
type LUT struct {
	Slews []float64 // ps, ascending
	Loads []float64 // fF, ascending
	V     [][]float64
}

// At evaluates the table at (slew, load).
func (l *LUT) At(slew, load float64) float64 {
	i, fi := locate(l.Slews, slew)
	j, fj := locate(l.Loads, load)
	v00 := l.V[i][j]
	v01 := l.V[i][j+1]
	v10 := l.V[i+1][j]
	v11 := l.V[i+1][j+1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// locate returns the lower index and fractional position of x within axis,
// extrapolating beyond the ends.
func locate(axis []float64, x float64) (int, float64) {
	n := len(axis)
	if n == 1 {
		return 0, 0
	}
	i := sort.SearchFloat64s(axis, x) - 1
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	den := axis[i+1] - axis[i]
	if den == 0 {
		return i, 0
	}
	return i, (x - axis[i]) / den
}

// scale returns a copy of the LUT with loads multiplied by loadScale and
// values by valScale (used for drive-strength derivation and node scaling).
func (l *LUT) scale(loadScale, valScale, slewScale float64) *LUT {
	out := &LUT{
		Slews: make([]float64, len(l.Slews)),
		Loads: make([]float64, len(l.Loads)),
		V:     make([][]float64, len(l.V)),
	}
	for i, s := range l.Slews {
		out.Slews[i] = s * slewScale
	}
	for j, c := range l.Loads {
		out.Loads[j] = c * loadScale
	}
	for i := range l.V {
		out.V[i] = make([]float64, len(l.V[i]))
		for j := range l.V[i] {
			out.V[i][j] = l.V[i][j] * valScale
		}
	}
	return out
}

// TimingArc is one characterized input→output arc.
type TimingArc struct {
	From, To string
	Negated  bool
	Delay    *LUT // ps, 50%→50%, averaged over rise/fall
	OutSlew  *LUT // ps, 10–90%
	Energy   *LUT // fJ internal energy per output transition
}

// Cell is a characterized library cell.
type Cell struct {
	Name     string
	Base     string
	Strength int
	Area     float64 // footprint, µm²
	Width    float64 // µm

	Inputs  []string
	Outputs []string
	PinCap  map[string]float64 // fF per input pin

	Arcs    []TimingArc
	Leakage float64 // mW

	Seq   bool
	Clock string
	Data  string
	Setup float64 // ps
	Hold  float64 // ps

	NumMIV int
	Def    *cellgen.CellDef
}

// Arc returns the timing arc from the given input pin to the output, or nil.
func (c *Cell) Arc(from, to string) *TimingArc {
	for i := range c.Arcs {
		if c.Arcs[i].From == from && c.Arcs[i].To == to {
			return &c.Arcs[i]
		}
	}
	return nil
}

// WorstArc returns the arc with the largest mid-table delay into the output.
func (c *Cell) WorstArc(to string) *TimingArc {
	var best *TimingArc
	bd := -1.0
	for i := range c.Arcs {
		a := &c.Arcs[i]
		if a.To != to {
			continue
		}
		d := a.Delay.At(medianOf(a.Delay.Slews), medianOf(a.Delay.Loads))
		if d > bd {
			best, bd = a, d
		}
	}
	return best
}

func medianOf(xs []float64) float64 { return xs[len(xs)/2] }

// MaxCap returns the maximum load the cell may drive (fF) before the flow
// must buffer the net — the max_capacitance attribute of a Liberty file.
// It scales with drive strength like the input capacitance does.
func (c *Cell) MaxCap() float64 {
	first := 0.0
	for _, p := range c.Inputs {
		if v := c.PinCap[p]; v > first {
			first = v
		}
	}
	m := 32 * first
	if m < 8 {
		m = 8
	}
	return m
}

// Library is a full characterized cell library.
type Library struct {
	Node tech.Node
	Mode tech.Mode
	VDD  float64

	Cells map[string]*Cell
	// byBase indexes Cells by base function, ascending strength. It stays
	// off the wire: DecodeJSON rebuilds it from Cells.
	byBase map[string][]*Cell
}

// Cell returns the named cell, or nil.
func (lib *Library) Cell(name string) *Cell { return lib.Cells[name] }

// MustCell returns the named cell or panics.
func (lib *Library) MustCell(name string) *Cell {
	c := lib.Cells[name]
	if c == nil {
		panic(fmt.Sprintf("liberty: unknown cell %q in %v/%v library", name, lib.Node, lib.Mode))
	}
	return c
}

// Variants returns the drive strengths of a base function, ascending.
func (lib *Library) Variants(base string) []*Cell { return lib.byBase[base] }

// Upsize returns the next stronger variant of the cell, or nil.
func (lib *Library) Upsize(c *Cell) *Cell {
	vs := lib.byBase[c.Base]
	for i, v := range vs {
		if v.Name == c.Name && i+1 < len(vs) {
			return vs[i+1]
		}
	}
	return nil
}

// Downsize returns the next weaker variant of the cell, or nil.
func (lib *Library) Downsize(c *Cell) *Cell {
	vs := lib.byBase[c.Base]
	for i, v := range vs {
		if v.Name == c.Name && i > 0 {
			return vs[i-1]
		}
	}
	return nil
}

// index rebuilds the byBase map.
func (lib *Library) index() {
	lib.byBase = map[string][]*Cell{}
	for _, c := range lib.Cells {
		lib.byBase[c.Base] = append(lib.byBase[c.Base], c)
	}
	//tmi3dvet:ordered each iteration sorts one bucket in place; buckets are disjoint, so visit order cannot matter
	for _, v := range lib.byBase {
		sort.Slice(v, func(i, j int) bool { return v[i].Strength < v[j].Strength })
	}
}

// ScalePinCap returns a copy of the library with every input pin capacitance
// multiplied by f — the Table 8 pin-cap reduction study (suffixes -p20/40/60
// correspond to f = 0.8/0.6/0.4).
func (lib *Library) ScalePinCap(f float64) *Library {
	out := &Library{Node: lib.Node, Mode: lib.Mode, VDD: lib.VDD, Cells: map[string]*Cell{}}
	for name, c := range lib.Cells {
		cc := *c
		cc.PinCap = map[string]float64{}
		for p, v := range c.PinCap {
			cc.PinCap[p] = v * f
		}
		out.Cells[name] = &cc
	}
	out.index()
	return out
}
