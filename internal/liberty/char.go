package liberty

import (
	"fmt"
	"math"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/device"
	"tmi3d/internal/extract"
	"tmi3d/internal/spice"
	"tmi3d/internal/tech"
)

// Characterization grid at the 45nm node. The corners match the fast/medium/
// slow conditions of Table 2 (7.5/37.5/150 ps input slew, 0.8/3.2/12.8 fF
// load); the DFF uses the reduced slew set the paper notes.
var (
	charSlews45    = []float64{7.5, 37.5, 150}
	charSlewsDFF45 = []float64{5, 28.1, 112.5}
	charLoads45    = []float64{0.8, 3.2, 12.8}
)

// Sequential constraint constants at 45nm (ps).
const (
	setup45 = 35.0
	hold45  = 5.0
)

// charEnv captures everything node-specific about a characterization run.
type charEnv struct {
	vdd    float64
	rScale float64 // multiplier on extracted resistance
	cScale float64 // multiplier on extracted capacitance
	node   tech.Node
}

func env45() charEnv { return charEnv{vdd: 1.1, rScale: 1, cScale: 1, node: tech.N45} }

// env7 follows Section S3: transistor models swapped for PTM-MG, cell
// internal R ×7.7 (thinner metal, higher resistivity), C ×0.156 (shorter
// internal wires, similar unit capacitance).
func env7() charEnv { return charEnv{vdd: 0.7, rScale: 7.7, cScale: 0.156, node: tech.N7} }

// deviceFor maps a drawn transistor to the node's model card and electrical
// width argument. At 7nm widths quantize to fins (X1 devices → 1 fin).
func (e charEnv) deviceFor(tr cellgen.Transistor) (device.Params, float64) {
	if e.node == tech.N7 {
		p := device.PTMMG7(tr.Kind)
		base := 0.415
		if tr.Kind == device.PMOS {
			base = 0.63
		}
		fins := math.Max(1, math.Round(tr.W/base))
		return p, fins
	}
	return device.PTM45(tr.Kind), tr.W
}

// Characterize45 builds the 45nm library for the given design mode by running
// SPICE on every cell function's extracted netlist. Strength variants are
// derived from the X1 characterization by load scaling.
func Characterize45(mode tech.Mode) (*Library, error) {
	env := env45()
	lib := &Library{Node: tech.N45, Mode: mode, VDD: env.vdd, Cells: map[string]*Cell{}}
	for _, base := range cellgen.Functions() {
		x1, _ := cellgen.Template(base)
		cell, err := characterizeCell(&x1, mode, env)
		if err != nil {
			return nil, fmt.Errorf("characterize %s (%v): %w", base, mode, err)
		}
		lib.Cells[cell.Name] = cell
		for _, k := range cellgen.Strengths(base) {
			if k == 1 {
				continue
			}
			lib.Cells[fmt.Sprintf("%s_X%d", base, k)] = deriveStrength(cell, k, mode)
		}
	}
	lib.index()
	return lib, nil
}

// layoutFor builds the mode-appropriate layout of a cell.
func layoutFor(def *cellgen.CellDef, mode tech.Mode) *cellgen.Layout {
	if mode.Is3D() {
		return cellgen.GenerateTMI(def)
	}
	return cellgen.Generate2D(def)
}

// characterizeCell runs the full SPICE characterization of one X1 cell.
func characterizeCell(def *cellgen.CellDef, mode tech.Mode, env charEnv) (*Cell, error) {
	lay := layoutFor(def, mode)
	exMode := extract.Dielectric
	if mode.Is3D() {
		// Library characterization uses the mean of the two top-silicon
		// bounds (Section 3.2: the real case lies between them).
		exMode = extract.Mean
	}
	ex := extract.Extract(def, lay, exMode)

	cell := &Cell{
		Name:     def.Name,
		Base:     def.Base,
		Strength: def.Strength,
		Area:     lay.Area(),
		Width:    lay.Width,
		Inputs:   def.Inputs,
		Outputs:  def.Outputs,
		PinCap:   map[string]float64{},
		Seq:      def.Seq,
		Clock:    def.Clock,
		Data:     def.Data,
		NumMIV:   lay.NumMIV,
		Def:      def,
	}
	if def.Seq {
		setup, hold, err := characterizeSetupHold(def, ex, env)
		if err != nil {
			return nil, err
		}
		cell.Setup, cell.Hold = setup, hold
	}

	// Input pin capacitance: gate caps of the devices the pin drives plus the
	// extracted wire capacitance of the pin net.
	for _, in := range def.Inputs {
		cell.PinCap[in] = env.pinCap(def, ex, in)
	}
	cell.Leakage = env.leakage(def)

	slews := charSlews45
	if def.Seq {
		slews = charSlewsDFF45
	}
	for _, arc := range def.Arcs {
		ta := TimingArc{
			From: arc.From, To: arc.To, Negated: arc.Negated,
			Delay:   &LUT{Slews: slews, Loads: charLoads45},
			OutSlew: &LUT{Slews: slews, Loads: charLoads45},
			Energy:  &LUT{Slews: slews, Loads: charLoads45},
		}
		for range slews {
			ta.Delay.V = append(ta.Delay.V, make([]float64, len(charLoads45)))
			ta.OutSlew.V = append(ta.OutSlew.V, make([]float64, len(charLoads45)))
			ta.Energy.V = append(ta.Energy.V, make([]float64, len(charLoads45)))
		}
		for i, slew := range slews {
			for j, load := range charLoads45 {
				m, err := simulatePoint(def, ex, &arc, env, slew, load)
				if err != nil {
					return nil, fmt.Errorf("arc %s→%s slew=%g load=%g: %w", arc.From, arc.To, slew, load, err)
				}
				ta.Delay.V[i][j] = m.delay
				ta.OutSlew.V[i][j] = m.outSlew
				ta.Energy.V[i][j] = m.energy
			}
		}
		cell.Arcs = append(cell.Arcs, ta)
	}
	return cell, nil
}

// pinCap returns the input pin capacitance in fF.
func (e charEnv) pinCap(def *cellgen.CellDef, ex *extract.Result, pin string) float64 {
	c := ex.Nets[pin].C * e.cScale
	for _, tr := range def.Transistors {
		if tr.Gate == pin {
			p, w := e.deviceFor(tr)
			c += p.GateCap(p.EffWidth(w))
		}
	}
	return c
}

// leakage returns the cell leakage in mW: half the summed off-currents (each
// input state turns one of the two networks off), calibrated to Table 11.
func (e charEnv) leakage(def *cellgen.CellDef) float64 {
	leakI := 0.0 // mA
	for _, tr := range def.Transistors {
		p, w := e.deviceFor(tr)
		leakI += p.Leakage(p.EffWidth(w))
	}
	return leakI / 2 * e.vdd // mA·V = mW
}

// measurement is one simulated grid point.
type measurement struct {
	delay, outSlew, energy float64
}

// simulatePoint dispatches on cell type.
func simulatePoint(def *cellgen.CellDef, ex *extract.Result, arc *cellgen.Arc, env charEnv, slew, load float64) (measurement, error) {
	if def.Seq {
		return simulateDFF(def, ex, env, slew, load)
	}
	return simulateArc(def, ex, arc, env, slew, load)
}

// buildCircuit assembles the SPICE netlist of a cell from its transistor list
// and extracted parasitics. Each net becomes two nodes (near/far) joined by
// its lumped resistance with the capacitance split across them: transistor
// source/drain terminals and input ports attach to the near node; gate loads
// and the output port attach to the far node.
func buildCircuit(def *cellgen.CellDef, ex *extract.Result, env charEnv) (*spice.Circuit, map[string]string, map[string]string) {
	c := spice.New()
	near := map[string]string{}
	far := map[string]string{}
	for _, net := range def.AllNets() {
		switch net {
		case cellgen.NetVDD:
			near[net], far[net] = "VDD", "VDD"
		case cellgen.NetVSS:
			near[net], far[net] = spice.Ground, spice.Ground
		default:
			rc := ex.Nets[net]
			n, f := net+".n", net+".f"
			near[net], far[net] = n, f
			r := rc.R * env.rScale / 1000 // Ω → kΩ
			// Floor at 1 Ω: a lower value adds nothing physically and the
			// huge conductance would wreck the Newton matrix conditioning.
			if r < 1e-3 {
				r = 1e-3
			}
			c.AddR(n, f, r)
			c.AddC(n, spice.Ground, rc.C*env.cScale/2)
			c.AddC(f, spice.Ground, rc.C*env.cScale/2)
		}
	}
	for _, tr := range def.Transistors {
		p, w := env.deviceFor(tr)
		c.AddMOS(p, w, near[tr.Drain], far[tr.Gate], near[tr.Source])
	}
	c.AddV("VDD", spice.DC(env.vdd))
	return c, near, far
}

// simulateArc measures one combinational arc: the input rises at t0 and falls
// after a settle interval; delay/slew are averaged over both transitions and
// the internal energy is half the cycle supply energy minus the load energy.
func simulateArc(def *cellgen.CellDef, ex *extract.Result, arc *cellgen.Arc, env charEnv, slew, load float64) (measurement, error) {
	vdd := env.vdd
	t0 := 2*slew + 30
	rise := slew / 0.8 // 10–90% portion of the full-swing ramp = nominal slew
	outRising := !arc.Negated

	// The inter-edge spacing starts at one nominal settle span and doubles
	// until both output transitions complete their 10–90% crossings: a tall
	// series stack at heavy load (NAND3/4 pull-down, NOR3/4 pull-up) can
	// still be mid-swing when the second input edge arrives, so the output
	// never reaches the far threshold inside the window. Measurement
	// failures must never be silently zeroed — averaging a failed edge in
	// halves the table entry, which is exactly the non-monotone-slew
	// corruption the lint engine's LIB-MONOTONE rule guards against.
	var (
		res      *spice.Result
		d1, s1   float64
		d2, s2   float64
		settle   float64
		stop     float64
		complete bool
	)
	base := 6*slew + 160 + load*30
	for settle = base; settle <= 16*base; settle *= 2 {
		c, near, far := buildCircuit(def, ex, env)
		for _, in := range def.Inputs {
			if in == arc.From {
				continue
			}
			v := 0.0
			if arc.Side[in] {
				v = vdd
			}
			c.AddV(near[in], spice.DC(v))
		}
		c.AddV(near[arc.From], twoEdge{vdd: vdd, t0: t0, t1: t0 + settle, rise: rise})
		c.AddC(far[arc.To], spice.Ground, load)
		stop = t0 + 2*settle
		var err error
		res, err = c.Transient(spice.Options{Stop: stop, Step: simStep(slew, stop)})
		if err != nil {
			return measurement{}, err
		}
		vin := res.Voltage(near[arc.From])
		vout := res.Voltage(far[arc.To])
		var ok1, ok2, ok3, ok4 bool
		d1, ok1 = edgeDelay(res.Times, vin, vout, vdd, true, outRising, t0-1)
		s1, ok2 = spice.SlewTime(res.Times, vout, 0, vdd, outRising, t0-1)
		d2, ok3 = edgeDelay(res.Times, vin, vout, vdd, false, !outRising, t0+settle-1)
		s2, ok4 = spice.SlewTime(res.Times, vout, 0, vdd, !outRising, t0+settle-1)
		if ok1 && ok2 && ok3 && ok4 {
			complete = true
			break
		}
	}
	if !complete {
		return measurement{}, fmt.Errorf("output did not complete both transitions (cell %s, arc %s→%s, slew %g, load %g)",
			def.Name, arc.From, arc.To, slew, load)
	}
	eCycle := res.SourceEnergy(0, t0-5, stop)
	energy := (eCycle - load*vdd*vdd) / 2
	if energy < 0 {
		energy = 0
	}
	return measurement{delay: (d1 + d2) / 2, outSlew: (s1 + s2) / 2, energy: energy}, nil
}

// simulateDFF measures the CK→Q arc. Both data polarities are simulated so
// the table holds the rise/fall average, as in Table 2.
func simulateDFF(def *cellgen.CellDef, ex *extract.Result, env charEnv, slew, load float64) (measurement, error) {
	var acc measurement
	for _, dataHigh := range []bool{true, false} {
		m, err := simulateDFFEdge(def, ex, env, slew, load, dataHigh)
		if err != nil {
			return measurement{}, err
		}
		acc.delay += m.delay
		acc.outSlew += m.outSlew
		acc.energy += m.energy
	}
	acc.delay /= 2
	acc.outSlew /= 2
	acc.energy /= 2
	return acc, nil
}

func simulateDFFEdge(def *cellgen.CellDef, ex *extract.Result, env charEnv, slew, load float64, dataHigh bool) (measurement, error) {
	vdd := env.vdd
	dv := 0.0
	if dataHigh {
		dv = vdd
	}
	t0 := 2*slew + 40
	rise := slew / 0.8

	// As in simulateArc: grow the inter-edge spacing until the launch edge's
	// output transition fully completes, and never zero-fill a failed slew.
	var (
		res     *spice.Result
		d, s    float64
		stop    float64
		ok, okS bool
	)
	base := 6*slew + 180 + load*30
	for settle := base; settle <= 16*base; settle *= 2 {
		c, near, far := buildCircuit(def, ex, env)
		c.AddV(near[def.Data], spice.DC(dv))
		c.AddV(near[def.Clock], twoEdge{vdd: vdd, t0: t0, t1: t0 + settle, rise: rise})
		c.AddC(far["Q"], spice.Ground, load)

		// Break the slave latch's bistability: previous state = !D so Q
		// switches at the launch edge.
		prevQ := vdd - dv
		setBoth := func(net string, v float64) {
			c.SetGuess(near[net], v)
			c.SetGuess(far[net], v)
		}
		setBoth("s1", vdd-prevQ)
		setBoth("s2", prevQ)
		setBoth("sf", vdd-prevQ)
		setBoth("Q", prevQ)
		setBoth("m1", dv)
		setBoth("m2", vdd-dv)
		setBoth("mf", dv)
		setBoth("ckb", vdd)
		setBoth("cki", 0)

		stop = t0 + 2*settle
		var err error
		res, err = c.Transient(spice.Options{Stop: stop, Step: simStep(slew, stop)})
		if err != nil {
			return measurement{}, err
		}
		vck := res.Voltage(near[def.Clock])
		vq := res.Voltage(far["Q"])
		d, ok = edgeDelay(res.Times, vck, vq, vdd, true, dataHigh, t0-1)
		s, okS = spice.SlewTime(res.Times, vq, 0, vdd, dataHigh, t0-1)
		if ok && okS {
			break
		}
	}
	if !ok || !okS {
		return measurement{}, fmt.Errorf("DFF Q did not switch cleanly (D=%v, slew %g, load %g)", dataHigh, slew, load)
	}
	e := res.SourceEnergy(0, t0-5, stop)
	if dataHigh {
		e -= load * vdd * vdd
	}
	if e < 0 {
		e = 0
	}
	return measurement{delay: d, outSlew: s, energy: e}, nil
}

// edgeDelay returns the 50%→50% delay between an input edge and the output
// response after tMin.
func edgeDelay(times, vin, vout []float64, vdd float64, inRising, outRising bool, tMin float64) (float64, bool) {
	tIn, ok1 := spice.CrossTime(times, vin, vdd/2, inRising, tMin)
	if !ok1 {
		return 0, false
	}
	tOut, ok2 := spice.CrossTime(times, vout, vdd/2, outRising, tIn)
	if !ok2 {
		return 0, false
	}
	return tOut - tIn, true
}

func simStep(slew, stop float64) float64 {
	step := slew / 12
	if m := stop / 1500; step < m {
		step = m
	}
	if step > 2.0 {
		step = 2.0
	}
	if step < 0.2 {
		step = 0.2
	}
	return step
}

// twoEdge is a rise-at-t0, fall-at-t1 pulse waveform.
type twoEdge struct {
	vdd, t0, t1, rise float64
}

// At implements spice.Waveform.
func (w twoEdge) At(t float64) float64 {
	switch {
	case t <= w.t0:
		return 0
	case t < w.t0+w.rise:
		return w.vdd * (t - w.t0) / w.rise
	case t <= w.t1:
		return w.vdd
	case t < w.t1+w.rise:
		return w.vdd * (1 - (t-w.t1)/w.rise)
	default:
		return 0
	}
}

// deriveStrength produces the Xk variant of a characterized X1 cell by load
// scaling: delay_k(s, l) = delay_1(s, l/k), energies and capacitances ×k.
// Footprint grows with the extra fingers of the real Xk layout.
func deriveStrength(x1 *Cell, k int, mode tech.Mode) *Cell {
	def, _ := cellgen.Template(x1.Base)
	defK := def
	defK.Name = fmt.Sprintf("%s_X%d", x1.Base, k)
	defK.Strength = k
	for i := range defK.Transistors {
		defK.Transistors[i].W *= float64(k)
	}
	lay := layoutFor(&defK, mode)

	kk := float64(k)
	out := &Cell{
		Name:     defK.Name,
		Base:     x1.Base,
		Strength: k,
		Area:     lay.Area(),
		Width:    lay.Width,
		Inputs:   x1.Inputs,
		Outputs:  x1.Outputs,
		PinCap:   map[string]float64{},
		Leakage:  x1.Leakage * kk,
		Seq:      x1.Seq,
		Clock:    x1.Clock,
		Data:     x1.Data,
		Setup:    x1.Setup,
		Hold:     x1.Hold,
		NumMIV:   lay.NumMIV,
		Def:      x1.Def,
	}
	for p, c := range x1.PinCap {
		out.PinCap[p] = c * kk
	}
	for _, a := range x1.Arcs {
		out.Arcs = append(out.Arcs, TimingArc{
			From: a.From, To: a.To, Negated: a.Negated,
			Delay:   a.Delay.scale(kk, 1, 1),
			OutSlew: a.OutSlew.scale(kk, 1, 1),
			Energy:  a.Energy.scale(kk, kk, 1),
		})
	}
	return out
}
