// Package sim is a gate-level logic simulator over netlist designs, used to
// verify that the physical flow preserves function: the same input vectors
// must produce the same outputs before synthesis and after every
// optimization step (buffers and resizing are logic-neutral). DFFs are
// evaluated transparently (D flows to Q), which turns a pipelined design
// into its combinational unrolling — sufficient for vector equivalence.
package sim

import (
	"fmt"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/netlist"
)

// Vector maps primary input names to values. Missing PIs default to false;
// the tie0/tie1 convenience inputs are bound automatically.
type Vector map[string]bool

// Result carries the evaluated net values.
type Result struct {
	d    *netlist.Design
	vals []bool
}

// Output returns the value at a primary output.
func (r *Result) Output(name string) (bool, error) {
	ni, ok := r.d.POs[name]
	if !ok {
		return false, fmt.Errorf("sim: no output %q", name)
	}
	return r.vals[ni], nil
}

// Net returns the value of a named net.
func (r *Result) Net(name string) (bool, bool) {
	ni := r.d.NetByName(name)
	if ni < 0 {
		return false, false
	}
	return r.vals[ni], true
}

// Values returns the evaluated value of every net, indexed like d.Nets —
// the raw data the equivalence checker's counterexample diagnosis walks to
// find the first diverging net.
func (r *Result) Values() []bool {
	out := make([]bool, len(r.vals))
	copy(out, r.vals)
	return out
}

// Run evaluates the design for one input vector.
func Run(d *netlist.Design, in Vector) (*Result, error) { return run(d, in, nil, false) }

// RunCycle evaluates one clock cycle with explicit sequential state: every
// DFF output Q is forced from state (keyed by DFF instance name, missing
// entries default to false) and DFFs do not propagate D→Q. This is the
// single-cycle semantics the equivalence checker's register-correspondence
// cut uses, so a SAT counterexample over (inputs, state) replays exactly.
// Each DFF's next state is its D net value in the result.
func RunCycle(d *netlist.Design, in Vector, state Vector) (*Result, error) {
	return run(d, in, state, true)
}

// run is the fixed-point evaluator behind Run and RunCycle: with hold set,
// every DFF output is held at its state value; otherwise DFFs are
// transparent.
func run(d *netlist.Design, in Vector, state Vector, hold bool) (*Result, error) {
	vals := make([]bool, len(d.Nets))
	have := make([]bool, len(d.Nets))
	for name, ni := range d.PIs {
		switch name {
		case "tie0":
			have[ni] = true
		case "tie1":
			vals[ni], have[ni] = true, true
		case "clk":
			have[ni] = true
		default:
			vals[ni] = in[name]
			have[ni] = true
		}
	}
	if hold {
		for ii := range d.Instances {
			inst := &d.Instances[ii]
			if inst.Func != "DFF" {
				continue
			}
			if qn, ok := inst.Pins.Net("Q"); ok {
				vals[qn], have[qn] = state[inst.Name], true
			}
		}
	}
	// Fixed-point sweeps handle any instance ordering, including the
	// transparent-DFF feedthrough of pipelined designs.
	var args []bool
	for pass := 0; pass < len(d.Instances)+10; pass++ {
		changed := false
		for ii := range d.Instances {
			inst := &d.Instances[ii]
			if inst.Func == "DFF" {
				if hold {
					continue // state is held, not propagated
				}
				dn, ok := inst.Pins.Net("D")
				if !ok {
					return nil, fmt.Errorf("sim: instance %q leaves input D of DFF unbound", inst.Name)
				}
				qn, ok := inst.Pins.Net("Q")
				if !ok {
					return nil, fmt.Errorf("sim: instance %q leaves output Q of DFF unbound", inst.Name)
				}
				if have[dn] && (!have[qn] || vals[qn] != vals[dn]) {
					vals[qn], have[qn] = vals[dn], true
					changed = true
				}
				continue
			}
			def, ok := cellgen.Lookup(inst.Func)
			if !ok {
				return nil, fmt.Errorf("sim: no logic for function %q", inst.Func)
			}
			ready := true
			args = args[:0]
			for _, pin := range def.Inputs {
				ni, ok := inst.Pins.Net(pin)
				if !ok {
					return nil, fmt.Errorf("sim: instance %q leaves input %s of %s unbound", inst.Name, pin, inst.Func)
				}
				if !have[ni] {
					ready = false
					break
				}
				args = append(args, vals[ni])
			}
			if !ready {
				continue
			}
			outs := def.Logic(args)
			for k, pin := range def.Outputs {
				ni, ok := inst.Pins.Net(pin)
				if !ok {
					continue
				}
				if !have[ni] || vals[ni] != outs[k] {
					vals[ni], have[ni] = outs[k], true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return &Result{d: d, vals: vals}, nil
}

// Equivalent checks that two designs produce identical primary outputs for
// the given vectors; the designs must share PI/PO names (as a design and its
// post-optimization version do). It returns the first mismatch description.
func Equivalent(a, b *netlist.Design, vectors []Vector) (bool, string, error) {
	for vi, v := range vectors {
		ra, err := Run(a, v)
		if err != nil {
			return false, "", err
		}
		rb, err := Run(b, v)
		if err != nil {
			return false, "", err
		}
		for po := range a.POs {
			va, err := ra.Output(po)
			if err != nil {
				return false, "", err
			}
			vb, err := rb.Output(po)
			if err != nil {
				return false, fmt.Sprintf("output %q missing from second design", po), nil
			}
			if va != vb {
				return false, fmt.Sprintf("vector %d: output %q differs (%v vs %v)", vi, po, va, vb), nil
			}
		}
	}
	return true, "", nil
}
