// Package opt implements the layout optimization steps of the paper's flow
// (Fig 1): pre-route and post-route timing closure by slack-driven gate
// sizing and buffer insertion, followed by power recovery (downsizing cells
// with excess slack). This is the stage where the T-MI benefit compounds —
// shorter wires mean timing closes with fewer buffers and smaller cells,
// reducing cell power as well as net power (Section 4.1).
package opt

import (
	"fmt"
	"math"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/sta"
)

// Options configures optimization.
type Options struct {
	Lib *liberty.Library
	// Wire supplies per-net parasitics; it must reflect netlist changes
	// (buffer insertion appends nets).
	Wire func(net int) sta.WireRC
	// Placement, when set, is updated with inserted buffer locations and
	// used to compute their net-length effect.
	Placement *place.Placement
	// MaxRounds bounds the closure loop (default 12).
	MaxRounds int
	// PowerRecovery enables the downsizing pass once timing is met.
	PowerRecovery bool
	// SkipDRV suppresses the max-cap pass (ECO reruns after routing, where
	// DRVs were already fixed).
	SkipDRV bool
	// NetChanged, when set, is invoked for every net whose sinks or
	// geometry the optimizer alters — callers with cached extraction use it
	// to invalidate stale parasitics.
	NetChanged func(net int)
	// AreaBudget caps total cell area (µm²): no upsizing or buffering move
	// may push the design beyond it, mirroring the placement-density limit
	// a real optimizer works under. Zero means unlimited.
	AreaBudget float64
	// DebugChecks enables logic-preservation assertions after every buffer
	// insertion: the inserted cell must be non-inverting (net polarity), the
	// split nets must each have exactly one recorded driver, no sink may be
	// lost, and the buffer must land inside the die. It also checks every
	// incremental timing result against a from-scratch sta.Analyze, bit for
	// bit. The equivalence-backed optimizer regression tests run with this
	// on; production flows leave it off and rely on the flow-level equiv
	// gates.
	DebugChecks bool
}

const (
	// bufferCell is the buffer used for insertion.
	bufferCell = "BUF_X4"
	// wireDelayThresholdPs triggers buffering of nets whose wire delay
	// exceeds this many ps.
	wireDelayThresholdPs = 40
	// slackMarginPs is the slack kept in hand while downsizing.
	slackMarginPs = 15
)

// Stats summarizes what the optimizer did.
type Stats struct {
	Upsized    int     `json:"upsized"`
	Downsized  int     `json:"downsized"`
	BuffersAdd int     `json:"buffers_add"`
	FinalWNS   float64 `json:"final_wns_ps"`
	Rounds     int     `json:"rounds"`
}

// Close runs timing closure and optional power recovery on the design.
func Close(d *netlist.Design, opt Options) (*Stats, error) {
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 12
	}
	env := sta.Env{Lib: opt.Lib, Wire: opt.Wire}
	st := &Stats{}
	area := &areaTracker{budget: opt.AreaBudget}
	if opt.AreaBudget > 0 {
		for i := range d.Instances {
			area.used += opt.Lib.MustCell(d.Instances[i].CellName).Area
		}
	}

	// One timer serves every round: it keeps the compiled timing graph, and
	// every resize and buffer insertion below goes through it.
	t, err := sta.NewTimer(d, env)
	if err != nil {
		return nil, err
	}
	analyze := func() (*sta.Result, error) {
		res, err := t.Analyze()
		if err != nil || !opt.DebugChecks {
			return res, err
		}
		ref, err := sta.Analyze(d, env)
		if err != nil {
			return nil, err
		}
		if err := res.Diff(ref); err != nil {
			return nil, fmt.Errorf("opt: incremental timing differs from a full analysis: %w", err)
		}
		return res, nil
	}

	var res *sta.Result
	// DRV pass: fix max-capacitance violations first (Encounter's order).
	// Long wires load their drivers beyond the library limit; splitting them
	// behind buffers is where most of a wire-dominated design's buffer count
	// comes from — and where T-MI's shorter wires save cells (Section 4.3).
	for round := 0; !opt.SkipDRV && round < 4; round++ {
		res, err = analyze()
		if err != nil {
			return nil, err
		}
		n, err := fixMaxCap(d, t, opt, res, st, area)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	for round := 0; round < opt.MaxRounds; round++ {
		st.Rounds = round + 1
		res, err = analyze()
		if err != nil {
			return nil, err
		}
		if res.Met() {
			break
		}
		changed, err := upsizeWorst(d, t, opt.Lib, res, st, area)
		if err != nil {
			return nil, err
		}
		buffered, err := bufferLongNets(d, t, opt, res, st, area)
		if err != nil {
			return nil, err
		}
		changed += buffered
		if changed == 0 {
			break
		}
	}

	if opt.PowerRecovery {
		for round := 0; round < 6; round++ {
			res, err = analyze()
			if err != nil {
				return nil, err
			}
			if !res.Met() {
				break
			}
			n, err := downsizeIdle(d, t, opt.Lib, res, st)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
		// Repair any recovery overshoot: the downsizing batches use slacks
		// from the start of their round, so a few paths can dip negative.
		for round := 0; round < opt.MaxRounds; round++ {
			res, err = analyze()
			if err != nil {
				return nil, err
			}
			if res.Met() {
				break
			}
			n, err := upsizeWorst(d, t, opt.Lib, res, st, area)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
	}
	res, err = analyze()
	if err != nil {
		return nil, err
	}
	st.FinalWNS = sta.Finite(res.WNS)
	return st, nil
}

// maxCapCandidate scores one net for the max-cap pass: the sinks to move
// behind a buffer when the driver's load exceeds its limit, or nil. It
// reads netlist, placement, and timing but mutates nothing.
func maxCapCandidate(d *netlist.Design, opt Options, res *sta.Result, ni int) []netlist.PinRef {
	if ni == d.ClockNet {
		return nil
	}
	drv := d.Nets[ni].Driver
	if drv.Inst < 0 || len(d.Nets[ni].Sinks) < 2 {
		return nil
	}
	cell := opt.Lib.MustCell(d.Instances[drv.Inst].CellName)
	if res.Load[ni] <= cell.MaxCap() {
		return nil
	}
	return fartherHalf(d, opt, ni)
}

// fixMaxCap buffers nets whose load exceeds the driver's max capacitance,
// in net order. Nets the pass adds are not revisited.
func fixMaxCap(d *netlist.Design, t *sta.Timer, opt Options, res *sta.Result, st *Stats, area *areaTracker) (int, error) {
	changed := 0
	numNets := len(d.Nets)
	for ni := 0; ni < numNets; ni++ {
		moved := maxCapCandidate(d, opt, res, ni)
		if len(moved) == 0 || !area.allow(opt.Lib.MustCell(bufferCell).Area) {
			continue
		}
		if err := insertBuffer(d, t, opt, ni, moved); err != nil {
			return changed, err
		}
		st.BuffersAdd++
		changed++
	}
	return changed, nil
}

// upsizeWorst increases drive strength on drivers of negative-slack nets.
func upsizeWorst(d *netlist.Design, t *sta.Timer, lib *liberty.Library, res *sta.Result, st *Stats, area *areaTracker) (int, error) {
	type cand struct {
		inst  int
		slack float64
	}
	var cands []cand
	seen := make([]bool, len(d.Instances))
	for ni := range d.Nets {
		sl := res.Slack(ni)
		if sl >= 0 {
			continue
		}
		drv := d.Nets[ni].Driver
		if drv.Inst < 0 || seen[drv.Inst] {
			continue
		}
		seen[drv.Inst] = true
		cands = append(cands, cand{drv.Inst, sl})
	}
	if len(cands) == 0 {
		return 0, nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].slack < cands[j].slack })
	limit := len(cands)/4 + 32
	changed := 0
	for _, c := range cands {
		if changed >= limit {
			break
		}
		cell := lib.MustCell(d.Instances[c.inst].CellName)
		if up := lib.Upsize(cell); up != nil && area.allow(up.Area-cell.Area) {
			if err := t.Resize(c.inst, up); err != nil {
				return changed, err
			}
			changed++
			st.Upsized++
		}
	}
	return changed, nil
}

// bufferLongNets inserts buffers on critical nets whose wire delay is large:
// the buffer is placed at the sink centroid, cutting the driver's RC load.
func bufferLongNets(d *netlist.Design, t *sta.Timer, opt Options, res *sta.Result, st *Stats, area *areaTracker) (int, error) {
	type cand struct {
		net   int
		delay float64
	}
	var cands []cand
	numNets := len(d.Nets)
	for ni := 0; ni < numNets; ni++ {
		if ni == d.ClockNet || res.Slack(ni) >= 0 {
			continue
		}
		wireDelay := sta.WireDelay(opt.Wire(ni), res.Load[ni])
		if wireDelay > wireDelayThresholdPs && len(d.Nets[ni].Sinks) >= 2 {
			cands = append(cands, cand{ni, wireDelay})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].delay > cands[j].delay })
	limit := len(cands)/4 + 8
	changed := 0
	for _, c := range cands {
		if changed >= limit {
			break
		}
		ni := c.net
		sinks := d.Nets[ni].Sinks
		if len(sinks) < 2 {
			continue
		}
		// Move the farther half of the sinks behind a buffer.
		moved := fartherHalf(d, opt, ni)
		if len(moved) == 0 || !area.allow(opt.Lib.MustCell(bufferCell).Area) {
			continue
		}
		if err := insertBuffer(d, t, opt, ni, moved); err != nil {
			return changed, err
		}
		st.BuffersAdd++
		changed++
	}
	return changed, nil
}

// insertBuffer moves the sinks behind a new buffer on net ni through the
// timer, places the buffer, and reports both split nets as changed.
func insertBuffer(d *netlist.Design, t *sta.Timer, opt Options, ni int, moved []netlist.PinRef) error {
	prevFanout := len(d.Nets[ni].Sinks)
	newNet, instIdx, err := t.InsertBuffer(ni, moved, "BUF", bufferCell)
	if err != nil {
		return err
	}
	if opt.Placement != nil {
		placeBuffer(opt.Placement, newNet, instIdx)
	}
	if opt.DebugChecks {
		if err := checkBufferInsertion(d, opt, ni, newNet, instIdx, prevFanout); err != nil {
			return err
		}
	}
	if opt.NetChanged != nil {
		opt.NetChanged(ni)
		opt.NetChanged(newNet)
	}
	return nil
}

// checkBufferInsertion asserts a just-inserted buffer preserved the logic of
// the net it split (Options.DebugChecks). A buffer that inverts, double-drives
// a net, or drops a sink changes downstream logic in ways timing analysis
// never notices — the equivalence gates would catch it at the end of the
// stage, but this names the exact insertion that went wrong.
func checkBufferInsertion(d *netlist.Design, opt Options, origNet, newNet, instIdx, prevFanout int) error {
	inst := &d.Instances[instIdx]
	def, ok := cellgen.Lookup(inst.Func)
	if !ok || def.Seq || def.Logic == nil || len(def.Inputs) != 1 || len(def.Outputs) != 1 {
		return fmt.Errorf("opt: inserted %s %q is not a single-input combinational cell", inst.Func, inst.Name)
	}
	// Polarity: the cell must compute identity on both input values.
	if def.Logic([]bool{false})[0] || !def.Logic([]bool{true})[0] {
		return fmt.Errorf("opt: inserted cell %s %q inverts — net polarity not preserved", inst.Func, inst.Name)
	}
	// Driver uniqueness: the buffer is the sole recorded driver of the new
	// net, and it did not steal the original net's driver.
	if want := (netlist.PinRef{Inst: instIdx, Pin: "Z"}); d.Nets[newNet].Driver != want {
		return fmt.Errorf("opt: net %q driver is %+v, want buffer %q pin Z",
			d.Nets[newNet].Name, d.Nets[newNet].Driver, inst.Name)
	}
	if drv := d.Nets[origNet].Driver; drv.Inst == instIdx {
		return fmt.Errorf("opt: buffer %q drives its own input net %q", inst.Name, d.Nets[origNet].Name)
	}
	// Connectivity: the buffer input must be a recorded sink of the original
	// net, and every moved sink's pin must point at the new net.
	bufIn := false
	for _, s := range d.Nets[origNet].Sinks {
		if s == (netlist.PinRef{Inst: instIdx, Pin: "A"}) {
			bufIn = true
			break
		}
	}
	if !bufIn {
		return fmt.Errorf("opt: buffer %q input not recorded as sink of net %q", inst.Name, d.Nets[origNet].Name)
	}
	for _, s := range d.Nets[newNet].Sinks {
		if s.Inst >= 0 && d.Instances[s.Inst].Pins[s.Pin] != newNet {
			return fmt.Errorf("opt: moved sink %+v of net %q still references net %d",
				s, d.Nets[newNet].Name, d.Instances[s.Inst].Pins[s.Pin])
		}
	}
	// Fanout conservation: original sinks minus the buffer input plus the
	// moved sinks must equal the pre-insertion fanout — no sink lost or
	// duplicated.
	if got := len(d.Nets[origNet].Sinks) - 1 + len(d.Nets[newNet].Sinks); got != prevFanout {
		return fmt.Errorf("opt: buffering net %q changed fanout %d → %d",
			d.Nets[origNet].Name, prevFanout, got)
	}
	// Placement sanity: the buffer must land inside the die.
	if p := opt.Placement; p != nil {
		x, y := p.X[instIdx], p.Y[instIdx]
		if x < p.Die.Lo.X || x > p.Die.Hi.X || y < p.Die.Lo.Y || y > p.Die.Hi.Y {
			return fmt.Errorf("opt: buffer %q placed at (%.2f, %.2f) outside die", inst.Name, x, y)
		}
	}
	return nil
}

// fartherHalf picks the sinks farthest from the driver (by placement when
// available, otherwise the second half of the sink list).
func fartherHalf(d *netlist.Design, opt Options, ni int) []netlist.PinRef {
	sinks := d.Nets[ni].Sinks
	half := len(sinks) / 2
	if half == 0 {
		return nil
	}
	if opt.Placement == nil {
		out := make([]netlist.PinRef, half)
		copy(out, sinks[len(sinks)-half:])
		return out
	}
	drv := opt.Placement.PinPoint(d.Nets[ni].Driver)
	type sd struct {
		ref  netlist.PinRef
		dist float64
	}
	arr := make([]sd, len(sinks))
	for i, s := range sinks {
		arr[i] = sd{s, opt.Placement.PinPoint(s).ManhattanDist(drv)}
	}
	sort.Slice(arr, func(a, b int) bool { return arr[a].dist > arr[b].dist })
	out := make([]netlist.PinRef, half)
	for i := 0; i < half; i++ {
		out[i] = arr[i].ref
	}
	return out
}

// placeBuffer extends the placement with the new buffer at the centroid of
// the sinks it now drives.
func placeBuffer(p *place.Placement, newNet, instIdx int) {
	d := p.Design
	var cx, cy float64
	n := 0
	for _, s := range d.Nets[newNet].Sinks {
		pt := p.PinPoint(s)
		cx += pt.X
		cy += pt.Y
		n++
	}
	if n == 0 {
		cx, cy = p.Die.Center().X, p.Die.Center().Y
	} else {
		cx /= float64(n)
		cy /= float64(n)
	}
	// Snap inside the die.
	cx = math.Max(p.Die.Lo.X, math.Min(cx, p.Die.Hi.X))
	cy = math.Max(p.Die.Lo.Y, math.Min(cy, p.Die.Hi.Y))
	for instIdx >= len(p.X) {
		p.X = append(p.X, 0)
		p.Y = append(p.Y, 0)
	}
	p.X[instIdx] = cx
	p.Y[instIdx] = cy
}

// areaTracker enforces the optimizer's placement-density budget.
type areaTracker struct {
	budget float64
	used   float64
}

// allow reserves delta µm² if the budget permits (always true when no
// budget is set).
func (a *areaTracker) allow(delta float64) bool {
	if a.budget <= 0 {
		a.used += delta
		return true
	}
	if a.used+delta > a.budget {
		return false
	}
	a.used += delta
	return true
}

// downsizeIdle reduces drive strength where slack is comfortably positive —
// the optimizer's power recovery (Section 4.1: "with a better timing, cells
// are downsized ... to reduce cell power"). Each candidate's delay penalty
// is estimated from the library tables and charged against its slack, which
// keeps a batch from overshooting too far.
func downsizeIdle(d *netlist.Design, t *sta.Timer, lib *liberty.Library, res *sta.Result, st *Stats) (int, error) {
	changed := 0
	for ni := range d.Nets {
		sl := res.Slack(ni)
		if math.IsInf(sl, 1) || sl < 3*slackMarginPs {
			continue
		}
		drv := d.Nets[ni].Driver
		if drv.Inst < 0 {
			continue
		}
		cell := lib.MustCell(d.Instances[drv.Inst].CellName)
		dn := lib.Downsize(cell)
		if dn == nil {
			continue
		}
		cur := cell.WorstArc(drv.Pin)
		next := dn.WorstArc(drv.Pin)
		if cur == nil || next == nil {
			continue
		}
		slew := res.Slew[ni]
		load := res.Load[ni]
		delta := next.Delay.At(slew, load) - cur.Delay.At(slew, load)
		// A path may cross several downsized cells in one batch; demand
		// headroom for a handful of them.
		if delta > 0 && sl-5*delta < 2*slackMarginPs {
			continue
		}
		if err := t.Resize(drv.Inst, dn); err != nil {
			return changed, err
		}
		changed++
		st.Downsized++
	}
	return changed, nil
}
