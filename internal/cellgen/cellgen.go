// Package cellgen builds the standard-cell library at the transistor level:
// the 2D cells (Nangate-45nm-like) and their transistor-level monolithic 3D
// (T-MI) counterparts obtained by folding each cell — PMOS devices to the
// bottom tier, NMOS to the top tier, joined by monolithic inter-tier vias —
// exactly the construction of Section 3.1 / Fig 2 of the paper.
//
// The package provides transistor netlists (for SPICE characterization),
// procedural layouts (for parasitic extraction), logic functions (for
// activity propagation) and timing-arc stimulus descriptions (for the
// library characterizer).
package cellgen

import (
	"fmt"
	"math"

	"tmi3d/internal/device"
)

// Reserved net names inside cells.
const (
	NetVDD = "VDD"
	NetVSS = "VSS"
)

// Transistor is one device in a cell netlist. W is the drawn width in µm at
// the 45nm node; the 7nm library is derived by the liberty scaling engine.
type Transistor struct {
	Name   string
	Kind   device.Kind
	W      float64
	Gate   string
	Drain  string
	Source string
}

// PortDir is a cell port direction.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
)

// Port is an external pin of a cell.
type Port struct {
	Name string
	Dir  PortDir
}

// Arc describes one timing arc and the stimulus needed to exercise it: while
// From transitions, every other input is held at the value in Side.
type Arc struct {
	From, To string
	// Negated is true when the output moves opposite to the input.
	Negated bool
	// Side holds the non-switching input values that sensitize the arc.
	Side map[string]bool
}

// CellDef is a complete cell: ports, transistor network, logic function and
// timing arcs, for one drive strength.
type CellDef struct {
	Name        string // e.g. "NAND2_X2"
	Base        string // function name, e.g. "NAND2"
	Strength    int    // 1, 2, 4, ...
	Ports       []Port
	Transistors []Transistor

	// Inputs and Outputs list pin names in the canonical order used by Logic.
	Inputs  []string
	Outputs []string
	// Logic evaluates the combinational function (nil for sequential cells).
	Logic func(in []bool) []bool
	// Seq marks sequential cells (DFF). For those, Clock and Data name the
	// corresponding pins and the output follows Data at the Clock edge.
	Seq   bool
	Clock string
	Data  string

	Arcs []Arc
}

// Dir returns the direction of the named port, and false when the cell has
// no such port.
func (c *CellDef) Dir(pin string) (PortDir, bool) {
	for _, p := range c.Ports {
		if p.Name == pin {
			return p.Dir, true
		}
	}
	return In, false
}

// NumP and NumN return the transistor counts by polarity.
func (c *CellDef) NumP() int { return c.countKind(device.PMOS) }

// NumN returns the NMOS count.
func (c *CellDef) NumN() int { return c.countKind(device.NMOS) }

func (c *CellDef) countKind(k device.Kind) int {
	n := 0
	for _, t := range c.Transistors {
		if t.Kind == k {
			n++
		}
	}
	return n
}

// Widths used by the X1 templates (µm, Nangate-like).
const (
	wp1 = 0.63  // PMOS single finger
	wn1 = 0.415 // NMOS single finger
	// maxFinger bounds a single finger's width; wider devices are split into
	// parallel fingers by the layout generator.
	maxFingerP = 0.63
	maxFingerN = 0.415
)

// InternalNets returns the non-port, non-supply nets of the cell.
func (c *CellDef) InternalNets() []string {
	seen := map[string]bool{NetVDD: true, NetVSS: true}
	for _, p := range c.Ports {
		seen[p.Name] = true
	}
	var nets []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	for _, t := range c.Transistors {
		add(t.Gate)
		add(t.Drain)
		add(t.Source)
	}
	return nets
}

// AllNets returns every net in the cell including ports and supplies.
func (c *CellDef) AllNets() []string {
	nets := []string{NetVDD, NetVSS}
	for _, p := range c.Ports {
		nets = append(nets, p.Name)
	}
	return append(nets, c.InternalNets()...)
}

// scaleStrength returns a copy of the X1 definition with all widths
// multiplied by k and the name suffixed accordingly.
func scaleStrength(def CellDef, k int) CellDef {
	out := def
	out.Strength = k
	out.Name = fmt.Sprintf("%s_X%d", def.Base, k)
	out.Transistors = make([]Transistor, len(def.Transistors))
	copy(out.Transistors, def.Transistors)
	for i := range out.Transistors {
		out.Transistors[i].W *= float64(k)
	}
	return out
}

// Columns returns the number of poly columns the layout needs: paired P/N
// fingers share a column; wide devices split into fingers.
func (c *CellDef) Columns() int {
	p, n := 0, 0
	for _, t := range c.Transistors {
		if t.Kind == device.PMOS {
			p += fingers(t.W, maxFingerP)
		} else {
			n += fingers(t.W, maxFingerN)
		}
	}
	if p > n {
		return p
	}
	return n
}

func fingers(w, max float64) int {
	f := int(math.Ceil(w/max - 1e-9))
	if f < 1 {
		f = 1
	}
	return f
}

// inPort and outPort are small helpers for the templates.
func inPort(names ...string) []Port {
	var ps []Port
	for _, n := range names {
		ps = append(ps, Port{n, In})
	}
	return ps
}

func outPort(names ...string) []Port {
	var ps []Port
	for _, n := range names {
		ps = append(ps, Port{n, Out})
	}
	return ps
}
