// Package sta implements graph-based static timing analysis over a mapped
// netlist: NLDM lookups for cell arcs, lumped-Elmore wire delays, slew
// propagation, and setup checks against the target clock — the sign-off
// timing role of the paper's flow.
//
// The same engine serves every stage by injecting different wire parasitics:
// wire-load-model estimates during synthesis, bounding-box estimates after
// placement, and extracted RC after routing.
package sta

import (
	"fmt"
	"math"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
)

// WireRC carries the lumped parasitics of one net.
type WireRC struct {
	R float64 // Ω, driver-to-sinks lumped resistance
	C float64 // fF, wire capacitance
}

// WireDelay returns the Elmore delay (ps) of a net's wire under the lumped-π
// interpretation of the extractor's (R, C) pair: the driver charges the
// far-end capacitance — the sink pins plus the far half of the distributed
// wire capacitance — through the full lumped resistance, while the near half
// of the wire sits directly at the driver and adds no wire delay. With
// load = C_wire + ΣC_pin (the Result.Load convention) that is
//
//	delay = R · (load − C/2) / 1000   [kΩ·fF = ps]
//
// clamped at zero: a stale or estimated extraction can briefly report a
// load below half the wire's own capacitance, which must never produce a
// negative delay. The forward arrival pass, the backward required-time
// pass, the critical-path tracer, and the optimizer's buffering threshold
// (internal/opt) all price wires through this one function, so no rewrite
// can silently skew them apart.
func WireDelay(w WireRC, load float64) float64 {
	d := w.R * (load - w.C/2) / 1000
	if d < 0 {
		return 0
	}
	return d
}

// Env bundles what timing needs besides the netlist.
type Env struct {
	Lib *liberty.Library
	// Wire returns the parasitics of net i.
	Wire func(net int) WireRC
	// InputSlew is the slew assumed at primary inputs, ps.
	InputSlew float64
	// ClockPs overrides the design target clock when non-zero.
	ClockPs float64
}

// Result holds per-net timing plus the summary metrics.
type Result struct {
	// Arrival and Slew are indexed by net (at the driver output).
	Arrival []float64
	Slew    []float64
	// Required holds the required arrival time per net; Slack(i) =
	// Required[i] − Arrival[i].
	Required []float64
	// Load is the total capacitive load per net (wire + sink pins), fF.
	Load []float64
	// Slack per endpoint net is folded into WNS/TNS.
	WNS float64
	TNS float64
	// HoldWNS is the worst hold slack over sequential endpoints: the
	// earliest (minimum-delay) arrival must not beat the flop's hold window
	// after the same clock edge.
	HoldWNS float64
	// CriticalNet is the endpoint net with the worst slack.
	CriticalNet int
	// ClockPs is the period the analysis checked against.
	ClockPs float64
}

// Met reports whether timing closed (WNS ≥ 0).
func (r *Result) Met() bool { return r.WNS >= 0 }

// cellOf resolves the bound library cell of an instance.
func cellOf(lib *liberty.Library, inst *netlist.Instance) (*liberty.Cell, error) {
	name := inst.CellName
	if name == "" {
		return nil, fmt.Errorf("sta: instance %q not mapped", inst.Name)
	}
	c := lib.Cell(name)
	if c == nil {
		return nil, fmt.Errorf("sta: unknown cell %q", name)
	}
	return c, nil
}

// resolveCells binds every instance to its library cell up front. A
// library/netlist mismatch is reported as one error here instead of
// surfacing as a nil-cell crash in whichever propagation pass touches the
// unmapped instance first.
func resolveCells(lib *liberty.Library, d *netlist.Design) ([]*liberty.Cell, error) {
	cells := make([]*liberty.Cell, len(d.Instances))
	for ii := range d.Instances {
		c, err := cellOf(lib, &d.Instances[ii])
		if err != nil {
			return nil, err
		}
		cells[ii] = c
	}
	return cells, nil
}

// graph is the compiled timing view of one design, built once per Analyze:
// every pin name the passes need is resolved to a net index up front, so
// the forward, hold and backward passes walk flat arrays and never touch
// Instance.Pins. Combinational instance ii drives outs[outStart[ii]:
// outStart[ii+1]] (in Cell.Outputs order); each output's arcs are
// arcs[arcLo:arcHi] (in Cell.Arcs order, so the max pass breaks arrival
// ties exactly as a walk over the cell would). Unconnected pins are dropped
// here rather than skipped in every pass.
type graph struct {
	outStart []int32
	outs     []outPin
	arcs     []arcIn
	// seqs holds the sequential instances in index order.
	seqs []seqInst
}

// outPin is one connected output of a combinational instance.
type outPin struct {
	net          int32
	arcLo, arcHi int32
}

// arcIn is one timing arc whose input pin is connected.
type arcIn struct {
	net int32 // input net
	arc *liberty.TimingArc
}

// seqInst is one flop: its D and Q nets (-1 when unconnected) and, with Q
// connected, its clock→Q launch arc.
type seqInst struct {
	cell   *liberty.Cell
	d, q   int32
	launch *liberty.TimingArc
}

// compile builds the timing graph, presized from the cells' output and arc
// counts. An error reports a flop whose Q is connected but whose cell has
// no clock→Q arc.
func compile(d *netlist.Design, cells []*liberty.Cell) (*graph, error) {
	nOut, nArc, nSeq := 0, 0, 0
	for _, c := range cells {
		if c.Seq {
			nSeq++
			continue
		}
		nOut += len(c.Outputs)
		nArc += len(c.Arcs)
	}
	g := &graph{
		outStart: make([]int32, len(cells)+1),
		outs:     make([]outPin, 0, nOut),
		arcs:     make([]arcIn, 0, nArc),
		seqs:     make([]seqInst, 0, nSeq),
	}
	for ii, c := range cells {
		g.outStart[ii] = int32(len(g.outs))
		pins := d.Instances[ii].Pins
		if c.Seq {
			s := seqInst{cell: c, d: -1, q: -1}
			if ni, ok := pins["D"]; ok {
				s.d = int32(ni)
			}
			if ni, ok := pins["Q"]; ok {
				s.q = int32(ni)
				if s.launch = c.Arc(c.Clock, "Q"); s.launch == nil {
					return nil, fmt.Errorf("sta: %s has no %s→Q arc", c.Name, c.Clock)
				}
			}
			g.seqs = append(g.seqs, s)
			continue
		}
		for _, out := range c.Outputs {
			outNet, ok := pins[out]
			if !ok {
				continue
			}
			lo := len(g.arcs)
			for ai := range c.Arcs {
				arc := &c.Arcs[ai]
				if arc.To != out {
					continue
				}
				if inNet, ok := pins[arc.From]; ok {
					g.arcs = append(g.arcs, arcIn{net: int32(inNet), arc: arc})
				}
			}
			g.outs = append(g.outs, outPin{net: int32(outNet), arcLo: int32(lo), arcHi: int32(len(g.arcs))})
		}
	}
	g.outStart[len(cells)] = int32(len(g.outs))
	return g, nil
}

// outputs returns instance ii's connected outputs (none for a flop).
func (g *graph) outputs(ii int32) []outPin { return g.outs[g.outStart[ii]:g.outStart[ii+1]] }

// inputs returns the connected arcs into one output.
func (g *graph) inputs(o outPin) []arcIn { return g.arcs[o.arcLo:o.arcHi] }

// Analyze runs full static timing analysis.
func Analyze(d *netlist.Design, env Env) (*Result, error) {
	lib := env.Lib
	n := len(d.Nets)
	res := &Result{
		Arrival: make([]float64, n),
		Slew:    make([]float64, n),
		Load:    make([]float64, n),
		WNS:     math.Inf(1),
		ClockPs: env.ClockPs,
	}
	if res.ClockPs == 0 {
		res.ClockPs = d.TargetClockPs
	}
	inputSlew := env.InputSlew
	if inputSlew == 0 {
		inputSlew = 20
	}

	cells, err := resolveCells(lib, d)
	if err != nil {
		return nil, err
	}

	// Net loads (wire capacitance plus sink pin capacitance) and each net's
	// wire delay, priced once here instead of once per arc per pass.
	wireDelay := make([]float64, n)
	for i := range d.Nets {
		wire := env.Wire(i)
		load := wire.C
		for _, s := range d.Nets[i].Sinks {
			if s.Inst < 0 {
				continue
			}
			load += cells[s.Inst].PinCap[s.Pin]
		}
		res.Load[i] = load
		wireDelay[i] = WireDelay(wire, load)
	}

	_, levelOrder, err := levelize(d)
	if err != nil {
		return nil, err
	}
	g, err := compile(d, cells)
	if err != nil {
		return nil, err
	}

	// Startpoints.
	for i := range res.Arrival {
		res.Arrival[i] = math.Inf(-1)
	}
	for _, ni := range d.PIs {
		res.Arrival[ni] = 0
		res.Slew[ni] = inputSlew
	}
	if d.ClockNet >= 0 {
		res.Arrival[d.ClockNet] = 0
		res.Slew[d.ClockNet] = inputSlew
	}
	// Sequential outputs launch at the clock edge.
	for _, s := range g.seqs {
		if s.q < 0 {
			continue
		}
		res.Arrival[s.q] = s.launch.Delay.At(inputSlew, res.Load[s.q])
		res.Slew[s.q] = s.launch.OutSlew.At(inputSlew, res.Load[s.q])
	}

	// Propagate through combinational instances in level order: every input
	// net is driven from a strictly lower level (or a startpoint), so it is
	// final before any instance reads it.
	for _, ii := range levelOrder {
		for _, out := range g.outputs(ii) {
			load := res.Load[out.net]
			bestArr := math.Inf(-1)
			bestSlew := 0.0
			for _, in := range g.inputs(out) {
				inArr := res.Arrival[in.net]
				if math.IsInf(inArr, -1) {
					continue
				}
				inSlew := res.Slew[in.net]
				// Wire delay from the input net's driver to this pin.
				a := inArr + wireDelay[in.net] + in.arc.Delay.At(inSlew, load)
				if a > bestArr {
					bestArr = a
					bestSlew = in.arc.OutSlew.At(inSlew, load)
				}
			}
			if !math.IsInf(bestArr, -1) {
				res.Arrival[out.net] = bestArr
				res.Slew[out.net] = bestSlew
			}
		}
	}

	// Endpoint checks: DFF D pins (setup) and primary outputs.
	res.CriticalNet = -1
	check := func(net int, required float64) {
		a := res.Arrival[net]
		if math.IsInf(a, -1) {
			return
		}
		w := env.Wire(net)
		a += w.R * w.C / 2 / 1000
		slack := required - a
		if slack < res.WNS {
			res.WNS = slack
			res.CriticalNet = net
		}
		if slack < 0 {
			res.TNS += slack
		}
	}
	for _, s := range g.seqs {
		if s.d >= 0 {
			check(int(s.d), res.ClockPs-s.cell.Setup)
		}
	}
	pos := d.SortedPOs()
	for _, po := range pos {
		check(d.POs[po], res.ClockPs)
	}
	if math.IsInf(res.WNS, 1) {
		res.WNS = res.ClockPs // no endpoints: trivially met
	}

	// Hold analysis: propagate MINIMUM arrivals (fastest arc per gate, no
	// wire pessimism) and check each sequential data pin against its hold
	// requirement. The clock is ideal, so launch and capture edges align.
	// The pass walks the level order of the max pass above.
	minArr := make([]float64, n)
	for i := range minArr {
		minArr[i] = math.Inf(1)
	}
	// Primary inputs carry a small default input delay in min analysis (the
	// usual set_input_delay discipline; a 0 would flag every PI→FF path).
	const inputDelayMin = 20.0
	for _, ni := range d.PIs {
		minArr[ni] = inputDelayMin
	}
	if d.ClockNet >= 0 {
		minArr[d.ClockNet] = 0
	}
	for _, s := range g.seqs {
		if s.q >= 0 {
			minArr[s.q] = s.launch.Delay.At(inputSlew, res.Load[s.q])
		}
	}
	for _, ii := range levelOrder {
		for _, out := range g.outputs(ii) {
			best := math.Inf(1)
			for _, in := range g.inputs(out) {
				if math.IsInf(minArr[in.net], 1) {
					continue
				}
				if a := minArr[in.net] + in.arc.Delay.At(res.Slew[in.net], res.Load[out.net]); a < best {
					best = a
				}
			}
			if !math.IsInf(best, 1) {
				minArr[out.net] = best
			}
		}
	}
	res.HoldWNS = math.Inf(1)
	for _, s := range g.seqs {
		if s.d >= 0 && !math.IsInf(minArr[s.d], 1) {
			if slack := minArr[s.d] - s.cell.Hold; slack < res.HoldWNS {
				res.HoldWNS = slack
			}
		}
	}
	if math.IsInf(res.HoldWNS, 1) {
		res.HoldWNS = 0
	}

	// Backward pass: required times, for slack-driven optimization, in
	// reverse level order — each arc min-folds into its input net's entry.
	res.Required = make([]float64, n)
	for i := range res.Required {
		res.Required[i] = math.Inf(1)
	}
	for _, s := range g.seqs {
		if s.d >= 0 && res.ClockPs-s.cell.Setup < res.Required[s.d] {
			res.Required[s.d] = res.ClockPs - s.cell.Setup
		}
	}
	for _, po := range pos {
		if ni := d.POs[po]; res.ClockPs < res.Required[ni] {
			res.Required[ni] = res.ClockPs
		}
	}
	for k := len(levelOrder) - 1; k >= 0; k-- {
		for _, out := range g.outputs(levelOrder[k]) {
			req := res.Required[out.net]
			if math.IsInf(req, 1) {
				continue
			}
			for _, in := range g.inputs(out) {
				r := req - in.arc.Delay.At(res.Slew[in.net], res.Load[out.net]) - wireDelay[in.net]
				if r < res.Required[in.net] {
					res.Required[in.net] = r
				}
			}
		}
	}
	return res, nil
}

// Slack returns the timing slack of a net (can be +Inf on unconstrained
// nets).
func (r *Result) Slack(net int) float64 {
	if math.IsInf(r.Required[net], 1) || math.IsInf(r.Arrival[net], -1) {
		return math.Inf(1)
	}
	return r.Required[net] - r.Arrival[net]
}

// Levelize returns instance indices in topological order (combinational
// logic only; sequential outputs are treated as sources). An error reports a
// combinational cycle.
func Levelize(d *netlist.Design) ([]int, error) {
	_, order, err := levelize(d)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(order))
	for k, ii := range order {
		out[k] = int(ii)
	}
	return out, nil
}

// levelize computes the topological depth of every instance over the
// combinational dependency graph (sequential instances and primary inputs
// are sources) and returns the instances bucketed by level as compressed
// rows: level l is order[start[l]:start[l+1]], in ascending instance-index
// order. A level is the longest-path depth, so the buckets do not depend on
// the order the work queue visits instances, and every instance in a level
// depends only on strictly lower levels. It keys on Instance.Func, not a
// library cell, so it works on unmapped designs. An error reports a
// combinational cycle.
func levelize(d *netlist.Design) (start, order []int32, err error) {
	n := len(d.Instances)
	isSeq := make([]bool, n)
	rowStart := make([]int32, n+1)
	for ii := range d.Instances {
		isSeq[ii] = d.Instances[ii].Func == "DFF"
		rowStart[ii+1] = rowStart[ii] + int32(len(d.Instances[ii].Pins))
	}
	// Split every combinational instance's pins once, within a row sized by
	// its pin count: output nets fill the row from the front, dependencies
	// (input nets driven by combinational logic) from the back. Count each
	// net's dependents on the way.
	rows := make([]int32, rowStart[n])
	outEnd := make([]int32, n)
	indeg := make([]int32, n)
	netStart := make([]int32, len(d.Nets)+1)
	for ii := range d.Instances {
		o, dep := rowStart[ii], rowStart[ii+1]
		if !isSeq[ii] {
			inst := &d.Instances[ii]
			//tmi3dvet:ordered pins are only split into per-instance rows and counted; levels are longest-path depths bucketed in index order, so they do not depend on queue order
			for pin, ni := range inst.Pins {
				if isOutputPin(inst.Func, pin) {
					rows[o] = int32(ni)
					o++
				} else if drv := d.Nets[ni].Driver; drv.Inst >= 0 && !isSeq[drv.Inst] {
					dep--
					rows[dep] = int32(ni)
					netStart[ni+1]++
				}
			}
		}
		outEnd[ii] = o
		indeg[ii] = rowStart[ii+1] - dep
	}
	outputs := func(ii int32) []int32 { return rows[rowStart[ii]:outEnd[ii]] }

	// Net → dependent instances as compressed rows, each row in ascending
	// instance order (one entry per dependent pin). The fill pass advances
	// netStart[ni] to the end of row ni; the shift turns it back into the
	// start of each row.
	for ni := 1; ni < len(netStart); ni++ {
		netStart[ni] += netStart[ni-1]
	}
	dependents := make([]int32, netStart[len(d.Nets)])
	for ii := range d.Instances {
		for _, ni := range rows[rowStart[ii+1]-indeg[ii] : rowStart[ii+1]] {
			dependents[netStart[ni]] = int32(ii)
			netStart[ni]++
		}
	}
	copy(netStart[1:], netStart)
	netStart[0] = 0

	level := make([]int32, n)
	queue := make([]int32, 0, n)
	for ii := range indeg {
		if indeg[ii] == 0 {
			queue = append(queue, int32(ii))
		}
	}
	for head := 0; head < len(queue); head++ {
		ii := queue[head]
		for _, ni := range outputs(ii) {
			for _, dep := range dependents[netStart[ni]:netStart[ni+1]] {
				if l := level[ii] + 1; l > level[dep] {
					level[dep] = l
				}
				indeg[dep]--
				if indeg[dep] == 0 {
					queue = append(queue, dep)
				}
			}
		}
	}
	if len(queue) != n {
		return nil, nil, fmt.Errorf("sta: combinational cycle (%d of %d ordered)", len(queue), n)
	}

	// Bucket by level with a counting sort: after the fill pass start[l]
	// has advanced to the end of bucket l, which the shift turns back into
	// the start of each bucket.
	maxLevel := int32(-1)
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	start = make([]int32, maxLevel+2)
	for _, l := range level {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order = queue // every instance is queued once; reuse the buffer
	for ii, l := range level {
		order[start[l]] = int32(ii)
		start[l]++
	}
	copy(start[1:], start)
	start[0] = 0
	return start, order, nil
}

// isOutputPin reports whether the pin is an output for the given function.
func isOutputPin(fn, pin string) bool {
	switch pin {
	case "Z", "Q", "S", "CO":
		// "S" is an input on MUX2 but the sum output on FA/HA.
		if pin == "S" && fn == "MUX2" {
			return false
		}
		return true
	}
	return false
}
