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
	"slices"

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

// graph is the compiled timing view of one design: every pin name the
// passes need is resolved to a net index up front, so the forward, hold and
// backward passes walk flat arrays and never touch Instance.Pins.
// Combinational instance ii drives outs[outStart[ii]:outStart[ii+1]] (in
// Cell.Outputs order); each output's arcs are arcs[arcLo:arcHi] (in
// Cell.Arcs order, so the max pass breaks arrival ties exactly as a walk
// over the cell would). One instance's outputs and arcs are contiguous, so a
// resize rewrites them in place and an inserted buffer appends its own.
// Unconnected pins are dropped here rather than skipped in every pass.
type graph struct {
	outStart []int32
	outs     []outPin
	arcs     []arcIn
	// seqs holds the sequential instances in index order; seqIdx maps an
	// instance to its seqs entry (-1 for combinational instances).
	seqs   []seqInst
	seqIdx []int32
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
		seqIdx:   make([]int32, len(cells)),
	}
	for ii, c := range cells {
		g.outStart[ii] = int32(len(g.outs))
		g.seqIdx[ii] = -1
		pins := d.Instances[ii].Pins
		if c.Seq {
			s, err := bindSeq(c, pins)
			if err != nil {
				return nil, err
			}
			g.seqIdx[ii] = int32(len(g.seqs))
			g.seqs = append(g.seqs, s)
			continue
		}
		g.outs, g.arcs = appendComb(g.outs, g.arcs, c, pins)
	}
	g.outStart[len(cells)] = int32(len(g.outs))
	return g, nil
}

// bindSeq binds a flop's D and Q pins and its launch arc.
func bindSeq(c *liberty.Cell, pins netlist.Pins) (seqInst, error) {
	s := seqInst{cell: c, d: -1, q: -1}
	if ni, ok := pins.Net("D"); ok {
		s.d = int32(ni)
	}
	if ni, ok := pins.Net("Q"); ok {
		s.q = int32(ni)
		if s.launch = c.Arc(c.Clock, "Q"); s.launch == nil {
			return s, fmt.Errorf("sta: %s has no %s→Q arc", c.Name, c.Clock)
		}
	}
	return s, nil
}

// appendComb appends a combinational instance's connected outputs and their
// connected arcs, in Cell.Outputs and Cell.Arcs order.
func appendComb(outs []outPin, arcs []arcIn, c *liberty.Cell, pins netlist.Pins) ([]outPin, []arcIn) {
	for _, out := range c.Outputs {
		outNet, ok := pins.Net(out)
		if !ok {
			continue
		}
		lo := len(arcs)
		for ai := range c.Arcs {
			arc := &c.Arcs[ai]
			if arc.To != out {
				continue
			}
			if inNet, ok := pins.Net(arc.From); ok {
				arcs = append(arcs, arcIn{net: int32(inNet), arc: arc})
			}
		}
		outs = append(outs, outPin{net: int32(outNet), arcLo: int32(lo), arcHi: int32(len(arcs))})
	}
	return outs, arcs
}

// outputs returns instance ii's connected outputs (none for a flop).
func (g *graph) outputs(ii int32) []outPin { return g.outs[g.outStart[ii]:g.outStart[ii+1]] }

// instArcs returns instance ii's arcs over all its outputs (contiguous).
func (g *graph) instArcs(ii int) []arcIn {
	outs := g.outs[g.outStart[ii]:g.outStart[ii+1]]
	if len(outs) == 0 {
		return nil
	}
	return g.arcs[outs[0].arcLo:outs[len(outs)-1].arcHi]
}

// Timer times one design across a sequence of edits: it binds the cells,
// compiles the timing graph and orders the instances once, and every resize
// or buffer insertion made through it patches that state in place, so a
// re-analysis only re-propagates. Edits must go through the Timer while it
// is in use; an edit made to the netlist behind its back leaves it stale.
//
// Analyze re-propagates every net, so any topological order yields the same
// bits: arrivals are a max over inputs that are final when read, and hold
// and required times are min-folds, which do not depend on fold order.
type Timer struct {
	d     *netlist.Design
	env   Env
	cells []*liberty.Cell
	g     *graph
	// order lists every instance in topological order; pending holds the
	// buffers inserted since the last Analyze, which merges them into it.
	order   []int32
	pending []int32
	// pos is the design's primary-output names, sorted: endpoint checks
	// visit them in that order, so TNS sums in a fixed order.
	pos []string
	// last is the previous Analyze's result, returned again while no edit
	// has been made since.
	last *Result
	// Per-Analyze scratch, kept across calls.
	wireDelay, minArr, arcDelay []float64
	outBuf                      []outPin
	arcBuf                      []arcIn
}

// NewTimer binds d's cells in env.Lib, compiles its timing graph and orders
// its instances. An error reports an unmapped or unknown cell, a flop
// without a clock→Q arc, or a combinational cycle.
func NewTimer(d *netlist.Design, env Env) (*Timer, error) {
	cells, err := resolveCells(env.Lib, d)
	if err != nil {
		return nil, err
	}
	_, order, err := levelize(d)
	if err != nil {
		return nil, err
	}
	g, err := compile(d, cells)
	if err != nil {
		return nil, err
	}
	return &Timer{d: d, env: env, cells: cells, g: g, order: order, pos: d.SortedPOs()}, nil
}

// Analyze runs full static timing analysis.
func Analyze(d *netlist.Design, env Env) (*Result, error) {
	t, err := NewTimer(d, env)
	if err != nil {
		return nil, err
	}
	return t.Analyze()
}

// Resize rebinds instance ii to cell c, which must have the same pins and
// arcs as its current cell (a drive-strength variant): the instance's arcs,
// or for a flop its setup, hold and launch arc, are rebound in place.
func (t *Timer) Resize(ii int, c *liberty.Cell) error {
	old := t.cells[ii]
	pins := t.d.Instances[ii].Pins
	if c.Seq != old.Seq {
		return fmt.Errorf("sta: cannot resize %s to %s", old.Name, c.Name)
	}
	if c.Seq {
		s, err := bindSeq(c, pins)
		if err != nil {
			return err
		}
		t.g.seqs[t.g.seqIdx[ii]] = s
	} else {
		// Rebuild the instance's outputs and arcs as compile would, over the
		// same span of the graph.
		t.outBuf, t.arcBuf = appendComb(t.outBuf[:0], t.arcBuf[:0], c, pins)
		outs := t.g.outs[t.g.outStart[ii]:t.g.outStart[ii+1]]
		arcs := t.g.instArcs(ii)
		if len(t.outBuf) != len(outs) || len(t.arcBuf) != len(arcs) {
			return fmt.Errorf("sta: cannot resize %s to %s: pins or arcs differ", old.Name, c.Name)
		}
		if len(outs) > 0 {
			base := outs[0].arcLo
			for k, o := range t.outBuf {
				outs[k] = outPin{net: o.net, arcLo: base + o.arcLo, arcHi: base + o.arcHi}
			}
			copy(arcs, t.arcBuf)
		}
	}
	t.cells[ii] = c
	t.d.Instances[ii].CellName = c.Name
	t.last = nil
	return nil
}

// InsertBuffer splits net behind a new single-input cell (see
// netlist.Design.InsertBuffer) and patches the timing graph: the buffer's
// output and arc are appended, and the moved sinks' arcs (or flop D pins)
// are retargeted to the new net.
func (t *Timer) InsertBuffer(net int, moved []netlist.PinRef, fn, cellName string) (newNet, instIdx int, err error) {
	c := t.env.Lib.Cell(cellName)
	if c == nil || c.Seq || c.Arc("A", "Z") == nil {
		return 0, 0, fmt.Errorf("sta: %q is not a library cell with an A→Z arc", cellName)
	}
	newNet, instIdx = t.d.InsertBuffer(net, moved, fn, cellName)
	g := t.g
	t.cells = append(t.cells, c)
	g.outs, g.arcs = appendComb(g.outs, g.arcs, c, t.d.Instances[instIdx].Pins)
	g.outStart = append(g.outStart, int32(len(g.outs)))
	g.seqIdx = append(g.seqIdx, -1)
	for _, m := range moved {
		if m.Inst < 0 {
			continue // a primary output: d.POs already names the new net
		}
		if si := g.seqIdx[m.Inst]; si >= 0 {
			if m.Pin == "D" {
				g.seqs[si].d = int32(newNet)
			}
			continue
		}
		arcs := g.instArcs(m.Inst)
		for k := range arcs {
			if arcs[k].arc.From == m.Pin {
				arcs[k].net = int32(newNet)
			}
		}
	}
	t.pending = append(t.pending, int32(instIdx))
	t.last = nil
	return newNet, instIdx, nil
}

// mergePending places each buffer inserted since the last Analyze right
// after the driver of its input net (first, when a primary input or the
// clock drives it), in one pass over the order. A buffer whose input is
// another new buffer's output follows that buffer. Everything the buffer
// drives read its input net before, so it already comes after that driver.
func (t *Timer) mergePending() error {
	if len(t.pending) == 0 {
		return nil
	}
	// follow[a+1] heads the list of new buffers that go right after
	// instance a (a = -1: first), in insertion order; next links each list.
	follow := make([]int32, len(t.cells)+1)
	next := make([]int32, len(t.cells))
	for i := range follow {
		follow[i] = -1
	}
	for k := len(t.pending) - 1; k >= 0; k-- {
		b := t.pending[k]
		// Every arc of an inserted buffer reads its one input net.
		anchor := int32(-1)
		if drv := t.d.Nets[t.g.instArcs(int(b))[0].net].Driver; drv.Inst >= 0 {
			anchor = int32(drv.Inst)
		}
		next[b], follow[anchor+1] = follow[anchor+1], b
	}
	order := make([]int32, 0, len(t.order)+len(t.pending))
	var emit func(ii int32)
	emit = func(ii int32) {
		order = append(order, ii)
		for b := follow[ii+1]; b >= 0; b = next[b] {
			emit(b)
		}
	}
	for b := follow[0]; b >= 0; b = next[b] {
		emit(b)
	}
	for _, ii := range t.order {
		emit(ii)
	}
	if len(order) != len(t.cells) {
		return fmt.Errorf("sta: %d of %d instances ordered after buffer insertion", len(order), len(t.cells))
	}
	t.order, t.pending = order, t.pending[:0]
	return nil
}

// Analyze times the design in its current state: it re-propagates every
// net over the compiled graph, or returns the previous result when no edit
// has been made since. The result must not be modified.
func (t *Timer) Analyze() (*Result, error) {
	if t.last != nil {
		return t.last, nil
	}
	if err := t.mergePending(); err != nil {
		return nil, err
	}
	d, env, cells, g, order := t.d, t.env, t.cells, t.g, t.order
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

	// Net loads (wire capacitance plus sink pin capacitance) and each net's
	// wire delay, priced once here instead of once per arc per pass.
	t.wireDelay = resize(t.wireDelay, n)
	wireDelay := t.wireDelay
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

	// Propagate through combinational instances in topological order: every
	// input net is driven earlier in the order (or is a startpoint), so it
	// is final before any instance reads it. Each arc's delay is looked up
	// once, here, at its input's final slew and its output's load; the hold
	// and backward passes reuse it.
	t.arcDelay = resize(t.arcDelay, len(g.arcs))
	arcDelay := t.arcDelay
	for _, ii := range order {
		for _, out := range g.outputs(ii) {
			load := res.Load[out.net]
			bestArr := math.Inf(-1)
			bestSlew := 0.0
			for k := out.arcLo; k < out.arcHi; k++ {
				in := g.arcs[k]
				inSlew := res.Slew[in.net]
				arcDelay[k] = in.arc.Delay.At(inSlew, load)
				inArr := res.Arrival[in.net]
				if math.IsInf(inArr, -1) {
					continue
				}
				// Wire delay from the input net's driver to this pin.
				a := inArr + wireDelay[in.net] + arcDelay[k]
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
	for _, po := range t.pos {
		check(d.POs[po], res.ClockPs)
	}
	if math.IsInf(res.WNS, 1) {
		res.WNS = res.ClockPs // no endpoints: trivially met
	}

	// Hold analysis: propagate MINIMUM arrivals (fastest arc per gate, no
	// wire pessimism) and check each sequential data pin against its hold
	// requirement. The clock is ideal, so launch and capture edges align.
	// The pass walks the order of the max pass above.
	t.minArr = resize(t.minArr, n)
	minArr := t.minArr
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
	for _, ii := range order {
		for _, out := range g.outputs(ii) {
			best := math.Inf(1)
			for k := out.arcLo; k < out.arcHi; k++ {
				in := g.arcs[k]
				if math.IsInf(minArr[in.net], 1) {
					continue
				}
				if a := minArr[in.net] + arcDelay[k]; a < best {
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
	// reverse topological order — each arc min-folds into its input net's
	// entry.
	res.Required = make([]float64, n)
	for i := range res.Required {
		res.Required[i] = math.Inf(1)
	}
	for _, s := range g.seqs {
		if s.d >= 0 && res.ClockPs-s.cell.Setup < res.Required[s.d] {
			res.Required[s.d] = res.ClockPs - s.cell.Setup
		}
	}
	for _, po := range t.pos {
		if ni := d.POs[po]; res.ClockPs < res.Required[ni] {
			res.Required[ni] = res.ClockPs
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		for _, out := range g.outputs(order[k]) {
			req := res.Required[out.net]
			if math.IsInf(req, 1) {
				continue
			}
			for k := out.arcLo; k < out.arcHi; k++ {
				in := g.arcs[k]
				r := req - arcDelay[k] - wireDelay[in.net]
				if r < res.Required[in.net] {
					res.Required[in.net] = r
				}
			}
		}
	}
	t.last = res
	return res, nil
}

// resize returns buf with length n, reallocating only when it is too small,
// and then with append's headroom: a timer's scratch grows by one buffer
// net at a time, and an exact fit would reallocate on every Analyze.
func resize(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// Diff reports the first field in which r and o differ, comparing every
// per-net vector and summary metric bit for bit; nil means identical.
func (r *Result) Diff(o *Result) error {
	vecs := []struct {
		name string
		a, b []float64
	}{{"Arrival", r.Arrival, o.Arrival}, {"Slew", r.Slew, o.Slew}, {"Required", r.Required, o.Required}, {"Load", r.Load, o.Load}}
	for _, v := range vecs {
		if len(v.a) != len(v.b) {
			return fmt.Errorf("sta: %s has %d nets, want %d", v.name, len(v.a), len(v.b))
		}
		for i := range v.a {
			if math.Float64bits(v.a[i]) != math.Float64bits(v.b[i]) {
				return fmt.Errorf("sta: %s[%d] = %v, want %v", v.name, i, v.a[i], v.b[i])
			}
		}
	}
	sums := []struct {
		name string
		a, b float64
	}{{"WNS", r.WNS, o.WNS}, {"TNS", r.TNS, o.TNS}, {"HoldWNS", r.HoldWNS, o.HoldWNS}, {"ClockPs", r.ClockPs, o.ClockPs}}
	for _, s := range sums {
		if math.Float64bits(s.a) != math.Float64bits(s.b) {
			return fmt.Errorf("sta: %s = %v, want %v", s.name, s.a, s.b)
		}
	}
	if r.CriticalNet != o.CriticalNet {
		return fmt.Errorf("sta: CriticalNet = %d, want %d", r.CriticalNet, o.CriticalNet)
	}
	return nil
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
			for _, p := range inst.Pins {
				if isOutputPin(inst.Func, p.Name) {
					rows[o] = int32(p.Net)
					o++
				} else if drv := d.Nets[p.Net].Driver; drv.Inst >= 0 && !isSeq[drv.Inst] {
					dep--
					rows[dep] = int32(p.Net)
					netStart[p.Net+1]++
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
