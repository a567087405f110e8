// Package power implements the statistical power analysis of the paper's
// sign-off step (Section 2): switching activities are asserted at primary
// inputs (0.2) and sequential cell outputs (0.1), propagated through the
// combinational logic with transition-density analysis, and combined with
// the characterized cell energies and extracted net capacitances into the
// cell / net (wire + pin) / leakage breakdown of Tables 13 and 16.
package power

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sta"
)

// Activities holds the asserted switching activity factors (transitions per
// clock cycle).
type Activities struct {
	PrimaryInput float64 `json:"primary_input"` // default 0.2
	SeqOutput    float64 `json:"seq_output"`    // default 0.1
}

// DefaultActivities are the paper's settings.
func DefaultActivities() Activities {
	return Activities{PrimaryInput: 0.2, SeqOutput: 0.1}
}

// Report is the full power breakdown, in mW. The JSON encoding is
// deterministic: encoding/json renders ByFunction with sorted keys, so the
// same report always produces the same bytes (the property the serving
// layer's byte-identity contract relies on).
type Report struct {
	Total   float64 `json:"total_mw"`
	Cell    float64 `json:"cell_mw"` // cell-internal dynamic power
	Net     float64 `json:"net_mw"`  // net switching power = Wire + Pin
	Wire    float64 `json:"wire_mw"`
	Pin     float64 `json:"pin_mw"`
	Leakage float64 `json:"leakage_mw"`
	// WireCap and PinCap are the total switched capacitances, pF (Table 16).
	WireCap float64 `json:"wire_cap_pf"`
	PinCap  float64 `json:"pin_cap_pf"`
	// NetActivity is the average propagated activity over nets.
	NetActivity float64 `json:"net_activity"`
	// ByFunction splits the cell-internal power per cell function (mW) —
	// e.g. how much the buffers or the flops burn. Renderers must iterate it
	// through FunctionBreakdown, never by ranging the map.
	ByFunction map[string]float64 `json:"by_function,omitempty"`
}

// FunctionPower is one ByFunction entry in the canonical order.
type FunctionPower struct {
	Func string  `json:"func"`
	MW   float64 `json:"mw"`
}

// FunctionBreakdown returns the per-function cell power sorted by function
// name — the one iteration order every renderer (text and JSON alike) uses,
// so two runs of the same design always present the split identically.
func (r *Report) FunctionBreakdown() []FunctionPower {
	out := make([]FunctionPower, 0, len(r.ByFunction))
	for f, p := range r.ByFunction {
		out = append(out, FunctionPower{Func: f, MW: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}

// FunctionTable renders the per-function split as an aligned text table with
// each function's share of the total cell-internal power.
func (r *Report) FunctionTable() string {
	var b strings.Builder
	b.WriteString("cell power by function\n")
	fmt.Fprintf(&b, "%-10s  %10s  %6s\n", "function", "mW", "share")
	for _, fp := range r.FunctionBreakdown() {
		share := 0.0
		if r.Cell > 0 {
			share = 100 * fp.MW / r.Cell
		}
		fmt.Fprintf(&b, "%-10s  %10.4f  %5.1f%%\n", fp.Func, fp.MW, share)
	}
	return b.String()
}

// Env bundles the analysis inputs.
type Env struct {
	Lib *liberty.Library
	// Wire returns each net's wire parasitics.
	Wire func(net int) sta.WireRC
	// ClockPs overrides the design target clock when non-zero.
	ClockPs    float64
	Activities Activities
	// Timing supplies slews and loads (from a prior STA run); optional —
	// medians are used when nil.
	Timing *sta.Result
}

// Analyze computes the power report.
func Analyze(d *netlist.Design, env Env) (*Report, error) {
	if env.Activities.PrimaryInput == 0 && env.Activities.SeqOutput == 0 {
		env.Activities = DefaultActivities()
	}
	clock := env.ClockPs
	if clock == 0 {
		clock = d.TargetClockPs
	}
	if clock <= 0 {
		return nil, fmt.Errorf("power: no clock period")
	}
	vdd := env.Lib.VDD

	_, act, err := Propagate(d, env.Lib, env.Activities)
	if err != nil {
		return nil, err
	}

	rep := &Report{ByFunction: map[string]float64{}}
	nNets := 0
	// Net switching power: P = ½ α C V² / T.
	for ni := range d.Nets {
		wire := env.Wire(ni).C
		pins := 0.0
		for _, s := range d.Nets[ni].Sinks {
			if s.Inst < 0 {
				continue
			}
			c := env.Lib.MustCell(d.Instances[s.Inst].CellName)
			pins += c.PinCap[s.Pin]
		}
		a := act[ni]
		if ni == d.ClockNet {
			// The ideal clock toggles twice per cycle; its pin load is the
			// DFF clock pins (wire cap not modeled — no CTS).
			a = 2.0
			wire = 0
		}
		rep.Wire += 0.5 * a * wire * vdd * vdd / clock
		rep.Pin += 0.5 * a * pins * vdd * vdd / clock
		rep.WireCap += wire
		rep.PinCap += pins
		if ni != d.ClockNet {
			rep.NetActivity += a
			nNets++
		}
	}
	if nNets > 0 {
		rep.NetActivity /= float64(nNets)
	}
	rep.Net = rep.Wire + rep.Pin
	rep.WireCap /= 1000 // fF → pF
	rep.PinCap /= 1000

	// Cell internal power: per output transition energy × transition rate.
	for ii := range d.Instances {
		inst := &d.Instances[ii]
		c := env.Lib.MustCell(inst.CellName)
		rep.Leakage += c.Leakage
		if c.Seq {
			qNet, ok := inst.Pins.Net("Q")
			if !ok {
				continue
			}
			arc := c.Arc(c.Clock, "Q")
			slew, load := medianIn(arc), loadOf(env, d, qNet)
			e := arc.Energy.At(slew, load)
			// The clock edge churns the internal latches every cycle even
			// when Q holds; Q activity adds the output-switching part.
			aq := act[qNet]
			p := e * (0.35 + 0.65*aq) / clock
			rep.Cell += p
			rep.ByFunction[inst.Func] += p
			continue
		}
		for _, out := range c.Outputs {
			outNet, ok := inst.Pins.Net(out)
			if !ok {
				continue
			}
			arc := c.WorstArc(out)
			if arc == nil {
				continue
			}
			slew := medianIn(arc)
			if env.Timing != nil {
				if inNet, ok := inst.Pins.Net(arc.From); ok {
					s := env.Timing.Slew[inNet]
					if s > 0 && !math.IsInf(s, 0) {
						slew = s
					}
				}
			}
			load := loadOf(env, d, outNet)
			e := arc.Energy.At(slew, load)
			p := e * act[outNet] / clock
			rep.Cell += p
			rep.ByFunction[inst.Func] += p
		}
	}
	rep.Total = rep.Cell + rep.Net + rep.Leakage
	return rep, nil
}

func medianIn(arc *liberty.TimingArc) float64 {
	return arc.Delay.Slews[len(arc.Delay.Slews)/2]
}

func loadOf(env Env, d *netlist.Design, net int) float64 {
	if env.Timing != nil {
		return env.Timing.Load[net]
	}
	load := env.Wire(net).C
	for _, s := range d.Nets[net].Sinks {
		if s.Inst < 0 {
			continue
		}
		c := env.Lib.MustCell(d.Instances[s.Inst].CellName)
		load += c.PinCap[s.Pin]
	}
	return load
}

// Propagate computes per-net static probability and transition density
// (transitions per clock) through the combinational logic.
func Propagate(d *netlist.Design, lib *liberty.Library, a Activities) (prob, act []float64, err error) {
	n := len(d.Nets)
	prob = make([]float64, n)
	act = make([]float64, n)
	for i := range prob {
		prob[i] = 0.5
	}
	for _, ni := range d.PIs {
		prob[ni] = 0.5
		act[ni] = a.PrimaryInput
	}
	order, err := sta.Levelize(d)
	if err != nil {
		return nil, nil, err
	}
	// Sequential outputs.
	for ii := range d.Instances {
		inst := &d.Instances[ii]
		if inst.Func != "DFF" {
			continue
		}
		if q, ok := inst.Pins.Net("Q"); ok {
			prob[q] = 0.5
			act[q] = a.SeqOutput
		}
	}
	for _, ii := range order {
		inst := &d.Instances[ii]
		if inst.Func == "DFF" {
			continue
		}
		c := lib.MustCell(inst.CellName)
		def := c.Def
		if def == nil || def.Logic == nil {
			return nil, nil, fmt.Errorf("power: no logic for %s", inst.CellName)
		}
		k := len(def.Inputs)
		inNets := make([]int, k)
		for i, pin := range def.Inputs {
			ni, ok := inst.Pins.Net(pin)
			if !ok {
				return nil, nil, fmt.Errorf("power: instance %q leaves input %s of %s unbound", inst.Name, pin, inst.CellName)
			}
			inNets[i] = ni
		}
		// Precompute the truth table once per cell.
		nv := 1 << uint(k)
		truth := make([][]bool, nv)
		in := make([]bool, k)
		for v := 0; v < nv; v++ {
			for i := 0; i < k; i++ {
				in[i] = v>>uint(i)&1 == 1
			}
			truth[v] = def.Logic(in)
		}
		// Cycle-based propagation (no glitching, like the statistical
		// engine the paper uses): inputs toggle independently with their
		// own activities; the output toggles when f differs across the
		// cycle boundary.
		pv := make([]float64, nv)   // P(current input vector = v)
		ptog := make([]float64, nv) // P(next = v XOR mask) factors below
		_ = ptog
		for v := 0; v < nv; v++ {
			p := 1.0
			for i := 0; i < k; i++ {
				if v>>uint(i)&1 == 1 {
					p *= prob[inNets[i]]
				} else {
					p *= 1 - prob[inNets[i]]
				}
			}
			pv[v] = p
		}
		for oi, out := range def.Outputs {
			outNet, ok := inst.Pins.Net(out)
			if !ok {
				continue
			}
			p1 := 0.0
			for v := 0; v < nv; v++ {
				if truth[v][oi] {
					p1 += pv[v]
				}
			}
			toggle := 0.0
			for v := 0; v < nv; v++ {
				if pv[v] == 0 {
					continue
				}
				for m := 0; m < nv; m++ { // m = toggle mask
					if truth[v][oi] == truth[v^m][oi] {
						continue
					}
					pm := 1.0
					for i := 0; i < k; i++ {
						ai := act[inNets[i]]
						if ai > 1 {
							ai = 1
						}
						if m>>uint(i)&1 == 1 {
							pm *= ai
						} else {
							pm *= 1 - ai
						}
					}
					toggle += pv[v] * pm
				}
			}
			prob[outNet] = p1
			act[outNet] = toggle
		}
	}
	return prob, act, nil
}
