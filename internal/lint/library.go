// Library consistency checks — the QA pass Encounter Library Characterizer
// applies to its output in the paper's flow: pin sets must match the cell
// definitions, NLDM surfaces must be physical (monotone in load), and
// capacitances must be positive.
package lint

import (
	"fmt"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/liberty"
)

// monotoneTol absorbs characterization noise: a table value may dip below
// its left neighbor by at most this much (ps) plus one part in 10⁶ before
// LIB-MONOTONE fires.
const monotoneTol = 1e-6

// CheckLibrary runs the liberty rules (LIB-*) over every cell of a
// characterized library.
func CheckLibrary(lib *liberty.Library) *Report {
	rep := NewReport(fmt.Sprintf("library %v/%v", lib.Node, lib.Mode))
	names := make([]string, 0, len(lib.Cells))
	for n := range lib.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		checkCell(rep, lib.Cells[name])
	}
	return rep
}

func checkCell(rep *Report, c *liberty.Cell) {
	where := "cell " + c.Name

	// LIB-PINSET: the liberty pin groups must match the cellgen function
	// definition the cell was characterized from.
	def, ok := cellgen.Lookup(c.Base)
	if !ok {
		rep.add("LIB-NOCELL", where, "base function %q has no cellgen template", c.Base)
	} else {
		if !sameSet(c.Inputs, def.Inputs) {
			rep.add("LIB-PINSET", where,
				"input pins %v do not match function definition %v", c.Inputs, def.Inputs)
		}
		if !sameSet(c.Outputs, def.Outputs) {
			rep.add("LIB-PINSET", where,
				"output pins %v do not match function definition %v", c.Outputs, def.Outputs)
		}
	}
	inSet := map[string]bool{}
	for _, p := range c.Inputs {
		inSet[p] = true
	}
	outSet := map[string]bool{}
	for _, p := range c.Outputs {
		outSet[p] = true
	}
	for _, p := range c.Inputs {
		if _, ok := c.PinCap[p]; !ok {
			rep.add("LIB-PINSET", where, "input pin %q has no capacitance entry", p)
		}
	}
	for p := range c.PinCap {
		if !inSet[p] {
			rep.add("LIB-PINSET", where, "capacitance entry for unknown pin %q", p)
		}
	}

	// LIB-CAP: physical quantities must be positive.
	for _, p := range c.Inputs {
		if cap, ok := c.PinCap[p]; ok && cap <= 0 {
			rep.add("LIB-CAP", fmt.Sprintf("%s pin %s", where, p),
				"pin capacitance %.4g fF is not positive", cap)
		}
	}
	if c.Area <= 0 {
		rep.add("LIB-CAP", where, "cell area %.4g µm² is not positive", c.Area)
	}
	if c.Leakage < 0 {
		rep.add("LIB-CAP", where, "negative leakage %.4g mW", c.Leakage)
	}

	// LIB-MONOTONE: delay and output slew grow (weakly) with load.
	for i := range c.Arcs {
		a := &c.Arcs[i]
		arcWhere := fmt.Sprintf("%s arc %s→%s", where, a.From, a.To)
		if a.From != "" && !inSet[a.From] {
			rep.add("LIB-PINSET", arcWhere, "arc input %q is not an input pin", a.From)
		}
		if a.To != "" && !outSet[a.To] {
			rep.add("LIB-PINSET", arcWhere, "arc output %q is not an output pin", a.To)
		}
		checkLUT(rep, arcWhere+" delay", a.Delay)
		checkLUT(rep, arcWhere+" slew", a.OutSlew)
	}
}

// checkLUT verifies ascending axes and per-row monotonicity in load.
func checkLUT(rep *Report, where string, l *liberty.LUT) {
	if l == nil {
		rep.add("LIB-MONOTONE", where, "missing table")
		return
	}
	if !ascending(l.Slews) {
		rep.add("LIB-MONOTONE", where, "slew axis not strictly ascending: %v", l.Slews)
	}
	if !ascending(l.Loads) {
		rep.add("LIB-MONOTONE", where, "load axis not strictly ascending: %v", l.Loads)
	}
	if len(l.V) != len(l.Slews) {
		rep.add("LIB-MONOTONE", where, "%d rows for %d slews", len(l.V), len(l.Slews))
		return
	}
	for i, row := range l.V {
		if len(row) != len(l.Loads) {
			rep.add("LIB-MONOTONE", where, "row %d has %d columns for %d loads", i, len(row), len(l.Loads))
			continue
		}
		for j := 1; j < len(row); j++ {
			tol := monotoneTol + 1e-6*abs(row[j-1])
			if row[j] < row[j-1]-tol {
				rep.add("LIB-MONOTONE", where,
					"value decreases with load at slew %.3g ps: %.6g → %.6g (load %.3g → %.3g fF)",
					l.Slews[i], row[j-1], row[j], l.Loads[j-1], l.Loads[j])
			}
		}
	}
}

func ascending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}
