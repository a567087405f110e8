package equiv

import (
	"fmt"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/netlist"
)

// funcAIG builds the AIG literals of a base function's outputs from its input
// literals into out (one slot per output). The builder table covers every
// function of the cellgen library explicitly; unknown functions fall back to
// a truth-table expansion of the cellgen template's Logic closure, so any
// future cell is checkable the day it is added.
type funcAIG func(g *AIG, in, out []Lit)

// one wraps a single-output builder.
func one(f func(g *AIG, in []Lit) Lit) funcAIG {
	return func(g *AIG, in, out []Lit) { out[0] = f(g, in) }
}

func andAll(g *AIG, in []Lit) Lit {
	out := ConstTrue
	for _, l := range in {
		out = g.And(out, l)
	}
	return out
}

func orAll(g *AIG, in []Lit) Lit {
	out := ConstFalse
	for _, l := range in {
		out = g.Or(out, l)
	}
	return out
}

// baseFuncs is the built-in base-function table: function name → AIG
// construction, with input literals in the cellgen canonical input order.
var baseFuncs = map[string]funcAIG{
	"INV":    one(func(g *AIG, in []Lit) Lit { return in[0].Not() }),
	"BUF":    one(func(g *AIG, in []Lit) Lit { return in[0] }),
	"CLKBUF": one(func(g *AIG, in []Lit) Lit { return in[0] }),
	"NAND2":  one(func(g *AIG, in []Lit) Lit { return andAll(g, in).Not() }),
	"NAND3":  one(func(g *AIG, in []Lit) Lit { return andAll(g, in).Not() }),
	"NAND4":  one(func(g *AIG, in []Lit) Lit { return andAll(g, in).Not() }),
	"NOR2":   one(func(g *AIG, in []Lit) Lit { return orAll(g, in).Not() }),
	"NOR3":   one(func(g *AIG, in []Lit) Lit { return orAll(g, in).Not() }),
	"NOR4":   one(func(g *AIG, in []Lit) Lit { return orAll(g, in).Not() }),
	"AND2":   one(func(g *AIG, in []Lit) Lit { return andAll(g, in) }),
	"OR2":    one(func(g *AIG, in []Lit) Lit { return orAll(g, in) }),
	"XOR2":   one(func(g *AIG, in []Lit) Lit { return g.Xor(in[0], in[1]) }),
	"XNOR2":  one(func(g *AIG, in []Lit) Lit { return g.Xor(in[0], in[1]).Not() }),
	"MUX2":   one(func(g *AIG, in []Lit) Lit { return g.Mux(in[0], in[1], in[2]) }),
	"AOI21": one(func(g *AIG, in []Lit) Lit {
		return g.Or(g.And(in[0], in[1]), in[2]).Not()
	}),
	"AOI22": one(func(g *AIG, in []Lit) Lit {
		return g.Or(g.And(in[0], in[1]), g.And(in[2], in[3])).Not()
	}),
	"OAI21": one(func(g *AIG, in []Lit) Lit {
		return g.And(g.Or(in[0], in[1]), in[2]).Not()
	}),
	"OAI22": one(func(g *AIG, in []Lit) Lit {
		return g.And(g.Or(in[0], in[1]), g.Or(in[2], in[3])).Not()
	}),
	"HA": func(g *AIG, in, out []Lit) {
		out[0], out[1] = g.Xor(in[0], in[1]), g.And(in[0], in[1])
	},
	"FA": func(g *AIG, in, out []Lit) {
		out[0] = g.Xor(g.Xor(in[0], in[1]), in[2])
		out[1] = g.Or(g.And(in[0], in[1]), g.And(in[2], g.Xor(in[0], in[1])))
	},
}

// truthTableAIG synthesizes a function's outputs into out from the cellgen
// template's Logic closure by Shannon expansion over the inputs — the
// fallback for functions without an explicit builder. Cells have ≤4 inputs,
// so the enumeration is at most 16 rows.
func truthTableAIG(g *AIG, def *cellgen.CellDef, in, out []Lit) {
	n := len(def.Inputs)
	rows := 1 << n
	args := make([]bool, n)
	for o := range out {
		l := ConstFalse
		for row := 0; row < rows; row++ {
			for i := range args {
				args[i] = row&(1<<i) != 0
			}
			if !def.Logic(args)[o] {
				continue
			}
			term := ConstTrue
			for i := 0; i < n; i++ {
				li := in[i]
				if !args[i] {
					li = li.Not()
				}
				term = g.And(term, li)
			}
			l = g.Or(l, term)
		}
		out[o] = l
	}
}

// Compiled is one design lowered onto a (possibly shared) AIG.
type Compiled struct {
	Design *netlist.Design
	G      *AIG
	// NetLit maps net index → literal; litUnset for nets outside every
	// compiled cone (clock, CK pins).
	NetLit []Lit
	// Regs lists the design's DFF instance indices in instance order.
	Regs []int
	// POs maps primary output name → literal.
	POs map[string]Lit
	// RegD maps DFF instance index → next-state (D pin) literal.
	RegD map[int]Lit
}

const litUnset = ^Lit(0)

// inputSource resolves a cut-point literal for a design input: primary
// inputs are shared across designs by name, register outputs by the
// register-correspondence key.
type inputSource struct {
	g *AIG
	// piLit maps "pi:<name>" and "reg:<key>" to literals. Both compiled
	// designs resolve through one source, which is what makes the miter's
	// inputs line up.
	lits  map[string]Lit
	order []string // creation order, parallel to g's PI order
}

func newInputSource(g *AIG) *inputSource {
	return &inputSource{g: g, lits: map[string]Lit{}}
}

// get returns the literal for a named cut input, creating a fresh AIG PI on
// first use.
func (s *inputSource) get(key string) Lit {
	if l, ok := s.lits[key]; ok {
		return l
	}
	l := s.g.PI()
	s.lits[key] = l
	s.order = append(s.order, key)
	return l
}

// compile lowers a design onto the shared AIG. regKey names each DFF's
// state input; matched registers of the two designs must map to the same key
// so their cones share the cut-point literal.
func compile(d *netlist.Design, src *inputSource, regKey func(inst int) string) (*Compiled, error) {
	g := src.g
	c := &Compiled{
		Design: d,
		G:      g,
		NetLit: make([]Lit, len(d.Nets)),
		POs:    map[string]Lit{},
		RegD:   map[int]Lit{},
	}
	for i := range c.NetLit {
		c.NetLit[i] = litUnset
	}

	// Cut points: primary inputs by name (ties become constants), register
	// outputs by correspondence key.
	for name, ni := range d.PIs {
		switch name {
		case "tie0":
			c.NetLit[ni] = ConstFalse
		case "tie1":
			c.NetLit[ni] = ConstTrue
		case "clk":
			// The clock net drives only CK pins; its value never enters a
			// compiled cone. Bind it to a shared PI for safety.
			c.NetLit[ni] = src.get("pi:clk")
		default:
			c.NetLit[ni] = src.get("pi:" + name)
		}
	}
	for i := range d.Instances {
		inst := &d.Instances[i]
		if inst.Func != "DFF" {
			continue
		}
		c.Regs = append(c.Regs, i)
		if qn, ok := inst.Pins.Net("Q"); ok {
			c.NetLit[qn] = src.get("reg:" + regKey(i))
		}
	}

	// Iterative post-order DFS from every net that needs a literal: PO nets
	// and DFF D nets. Explicit stack — the benchmark netlists reach 200k+
	// instances and would overflow the goroutine stack recursively. The
	// netlist is acyclic through combinational cells (lint's ERC-LOOP
	// guarantees this for flow designs); a cycle is detected via the
	// on-stack (grey) mark and reported instead of spinning.
	const grey = 1
	state := make([]uint8, len(d.Nets))
	var err error
	// One DFS stack, one flat slice of pending input nets (a frame's inputs
	// are deps[off:off+len(def.Inputs)], truncated when the frame pops) and
	// one input- and one output-literal buffer serve every root, so the walk
	// allocates per design, not per instance.
	type frame struct {
		ni  int
		def *cellgen.CellDef // the driver's template; nil until expanded
		off int
		di  int
	}
	var (
		stack []frame
		deps  []int
		in    []Lit
		outs  []Lit
	)
	iterVisit := func(root int) error {
		if c.NetLit[root] != litUnset {
			return nil
		}
		stack = append(stack[:0], frame{ni: root})
		deps = deps[:0]
		state[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.def == nil {
				drv := d.Nets[f.ni].Driver
				if drv.Inst < 0 {
					// Undriven net (the generators leave unused helper nets
					// dangling): constant false, matching sim's zero-default.
					c.NetLit[f.ni] = ConstFalse
					state[f.ni] = 0
					stack = stack[:len(stack)-1]
					continue
				}
				inst := &d.Instances[drv.Inst]
				def, ok := cellgen.Lookup(inst.Func)
				if !ok {
					return fmt.Errorf("equiv: instance %q: no template for function %q", inst.Name, inst.Func)
				}
				if def.Seq {
					return fmt.Errorf("equiv: sequential instance %q output not cut", inst.Name)
				}
				f.def, f.off = def, len(deps)
				for _, pin := range def.Inputs {
					pn, ok := inst.Pins.Net(pin)
					if !ok {
						return fmt.Errorf("equiv: instance %q: missing input pin %s", inst.Name, pin)
					}
					deps = append(deps, pn)
				}
			}
			advanced := false
			for f.di < len(f.def.Inputs) {
				pn := deps[f.off+f.di]
				if c.NetLit[pn] != litUnset {
					f.di++
					continue
				}
				if state[pn] == grey {
					return fmt.Errorf("equiv: combinational cycle through net %q", d.Nets[pn].Name)
				}
				state[pn] = grey
				stack = append(stack, frame{ni: pn})
				advanced = true
				break
			}
			if advanced {
				continue
			}
			// All inputs ready: emit this net's driver.
			ni, def := f.ni, f.def
			in = in[:0]
			for _, pn := range deps[f.off:] {
				in = append(in, c.NetLit[pn])
			}
			deps = deps[:f.off]
			stack = stack[:len(stack)-1]
			drv := d.Nets[ni].Driver
			inst := &d.Instances[drv.Inst]
			outs = append(outs[:0], make([]Lit, len(def.Outputs))...)
			if fb, ok := baseFuncs[inst.Func]; ok {
				fb(g, in, outs)
			} else {
				truthTableAIG(g, def, in, outs)
			}
			for k, pin := range def.Outputs {
				if on, ok := inst.Pins.Net(pin); ok && c.NetLit[on] == litUnset {
					c.NetLit[on] = outs[k]
				}
			}
			if c.NetLit[ni] == litUnset {
				return fmt.Errorf("equiv: net %q driven by %q pin %s not produced",
					d.Nets[ni].Name, inst.Name, drv.Pin)
			}
			state[ni] = 0
		}
		return nil
	}

	for _, name := range sortedNames(d.POs) {
		if err = iterVisit(d.POs[name]); err != nil {
			return nil, err
		}
		c.POs[name] = c.NetLit[d.POs[name]]
	}
	for _, ri := range c.Regs {
		dn, ok := d.Instances[ri].Pins.Net("D")
		if !ok {
			return nil, fmt.Errorf("equiv: DFF %q has no D pin", d.Instances[ri].Name)
		}
		if err = iterVisit(dn); err != nil {
			return nil, err
		}
		c.RegD[ri] = c.NetLit[dn]
	}
	return c, nil
}

func sortedNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
