package flow

import (
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/cts"
	"tmi3d/internal/geom"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

// Analysis is the sign-off of one implementation (Analyze).
type Analysis struct {
	// Result holds the report's physical fields (footprint, cells,
	// wirelength with the clock tree, WNS, clock, power) as the flow's own
	// Result has them; the synthesis, optimization and gate fields stay
	// empty.
	Result *Result
	// Route is the final global route and Timing the sign-off timing, run
	// in Env: the library and the route's extracted parasitics.
	Route  *route.Result
	Timing *sta.Result
	Env    sta.Env
}

// Analyze signs off a final implementation the way the flow signs off its
// own, in the same three steps: a sign-off pass (route, extract, time:
// signoffPass, each pass of converge), power with the clock tree
// (signoffPower, the power stage) and the report's physical fields
// (physical, the report stage). On the netlist and placement a flow's
// Result.Implementation returns it gives the flow's numbers. It times against
// d.TargetClockPs, the calibrated clock, and changes neither d nor pl.
func Analyze(cfg Config, d *netlist.Design, pl *place.Placement) (*Analysis, error) {
	cfg = cfg.Normalized()
	t, lib, err := cfg.Library()
	if err != nil {
		return nil, err
	}
	lv := &libraryValue{tech: t, lib: lib}
	tb := captable.Build(t, captable.Options{ResistivityScale: cfg.ResistivityScale})
	prof := newProfile()
	rt, wire, timing, err := signoffPass(d, pl, tb, lv, prof)
	if err != nil {
		return nil, err
	}
	pow, clk, err := signoffPower(d, pl, tb, lv, cfg.Activities, wire, timing, prof)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	res.physical(lib, d, pl.Die, rt, timing, pow, clk)
	return &Analysis{Result: res, Route: rt, Timing: timing, Env: sta.Env{Lib: lib, Wire: wire}}, nil
}

// signoffPass routes the placement, extracts the route and times the design
// on the extraction. It returns the parasitics it timed with, which fall
// back to bounding-box estimates for nets made after the route.
func signoffPass(d *netlist.Design, pl *place.Placement, tb *captable.Table, lib *libraryValue, prof *profile) (*route.Result, func(int) sta.WireRC, *sta.Result, error) {
	t0 := time.Now()
	rt, err := route.Run(pl, route.Options{Tech: lib.tech})
	if err != nil {
		return nil, nil, nil, err
	}
	ex := rcx.Extract(rt, tb, lib.tech)
	prof.add("route", time.Since(t0))
	wire := extractedWire(ex, pl, tb).fn
	t0 = time.Now()
	timing, err := sta.Analyze(d, sta.Env{Lib: lib.lib, Wire: wire})
	if err != nil {
		return nil, nil, nil, err
	}
	prof.add("sta", time.Since(t0))
	return rt, wire, timing, nil
}

// signoffPower computes the sign-off power report, including the clock
// distribution tree: an ideal-skew buffered tree over the DFFs. Its wire
// capacitance and buffer energy are charged at two transitions per cycle; the
// tree shrinks with the T-MI footprint like signal wiring.
func signoffPower(d *netlist.Design, pl *place.Placement, tb *captable.Table, lib *libraryValue, act power.Activities, wire func(int) sta.WireRC, timing *sta.Result, prof *profile) (*power.Report, *cts.Result, error) {
	t0 := time.Now()
	pow, err := power.Analyze(d, power.Env{
		Lib: lib.lib, Wire: wire, Activities: act, Timing: timing,
	})
	if err != nil {
		return nil, nil, err
	}
	clock := d.TargetClockPs
	clk := cts.Build(pl, 0)
	_, cInt, _ := tb.ClassAverage(tech.ClassIntermediate)
	clkCap := clk.Wirelength * cInt
	pow.Wire += clkCap * lib.lib.VDD * lib.lib.VDD / clock
	pow.WireCap += clkCap / 1000
	if buf := lib.lib.Cell("CLKBUF_X4"); buf != nil && len(buf.Arcs) > 0 {
		e := buf.Arcs[0].Energy.At(20, 10)
		pow.Cell += float64(clk.NumBuffers) * e * 2 / clock
		pow.Leakage += float64(clk.NumBuffers) * buf.Leakage
	}
	pow.Net = pow.Wire + pow.Pin
	pow.Total = pow.Cell + pow.Net + pow.Leakage
	prof.add("power", time.Since(t0))
	return pow, clk, nil
}

// physical fills the report's physical fields from a signed-off
// implementation: die, cells and cell area, routed plus clock-tree
// wirelength, WNS, clock, power and the Fig 6 wirelength samples.
func (res *Result) physical(lib *liberty.Library, d *netlist.Design, die geom.Rect, rt *route.Result, timing *sta.Result, pow *power.Report, clk *cts.Result) {
	res.Footprint, res.DieW, res.DieH = die.Area(), die.W(), die.H()
	res.NumCells = len(d.Instances)
	res.TotalWL = rt.TotalLen + clk.Wirelength
	res.WLByClass = rt.LenByClass
	res.WLByClass[tech.ClassIntermediate] += clk.Wirelength // clock routes on 2x layers
	res.Overflow = rt.Overflow
	res.WNS = sta.Finite(timing.WNS)
	res.ClockPs = d.TargetClockPs
	res.Power = pow
	res.ClockWL = clk.Wirelength
	res.ClockBuffers = clk.NumBuffers
	st := d.Stats()
	res.NumBuffers = st.NumBuffers + clk.NumBuffers
	res.AvgFanout = st.AverageFanout
	for i := range d.Instances {
		res.CellArea += lib.MustCell(d.Instances[i].CellName).Area
	}
	res.Util = res.CellArea / die.Area()
	res.WLSamples = map[int][]float64{}
	for ni := range d.Nets {
		if ni == d.ClockNet {
			continue
		}
		f := d.Nets[ni].Fanout()
		if f > 32 {
			f = 32
		}
		res.WLSamples[f] = append(res.WLSamples[f], rt.Routes[ni].Len)
	}
}
