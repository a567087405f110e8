// Package spice is a small transistor-level circuit simulator used to
// characterize standard cells, standing in for HSPICE under Cadence Encounter
// Library Characterizer in the paper's flow.
//
// It supports resistors, capacitors, grounded voltage sources with piecewise
// waveforms, and MOSFETs using the internal/device compact model. The solver
// is nodal analysis with Newton–Raphson linearization and backward-Euler time
// integration — all voltage sources are grounded, so fixed nodes are simply
// eliminated from the unknown vector.
//
// Units: volts, milliamps, kiloohms, femtofarads, picoseconds (R·C in
// kΩ·fF = ps).
package spice

import (
	"fmt"
	"math"

	"tmi3d/internal/device"
)

// Ground is the reserved name of the reference node.
const Ground = "0"

// Waveform defines a grounded source voltage over time (ps → V).
type Waveform interface {
	At(t float64) float64
}

// DC is a constant voltage.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// Ramp is a linear transition from V0 to V1 starting at T0 over Rise ps,
// holding V1 afterwards.
type Ramp struct {
	V0, V1   float64
	T0, Rise float64
}

// At implements Waveform.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.T0:
		return r.V0
	case t >= r.T0+r.Rise:
		return r.V1
	default:
		return r.V0 + (r.V1-r.V0)*(t-r.T0)/r.Rise
	}
}

type resistor struct {
	a, b int
	g    float64 // 1/kΩ = mA/V
}

type capacitor struct {
	a, b int
	c    float64 // fF
}

type source struct {
	node int
	wave Waveform
}

type mosfet struct {
	params  device.Params
	w       float64 // effective width, µm
	d, g, s int
}

// Circuit is a netlist under construction and the simulation engine.
type Circuit struct {
	names   []string
	index   map[string]int
	res     []resistor
	caps    []capacitor
	sources []source
	fets    []mosfet
	guesses map[int]float64
}

// SetGuess sets the initial DC guess for a node. Bistable circuits (latches)
// have multiple operating points; the guess selects the intended basin.
func (c *Circuit) SetGuess(node string, v float64) {
	if c.guesses == nil {
		c.guesses = make(map[int]float64)
	}
	c.guesses[c.Node(node)] = v
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	c := &Circuit{index: make(map[string]int)}
	c.Node(Ground)
	return c
}

// Node returns the index for the named node, creating it on first use.
func (c *Circuit) Node(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	return i
}

// AddR adds a resistor of r kΩ between nodes a and b. Non-positive r panics.
func (c *Circuit) AddR(a, b string, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("spice: resistor %s-%s with non-positive value %g", a, b, r))
	}
	c.res = append(c.res, resistor{c.Node(a), c.Node(b), 1 / r})
}

// AddC adds a capacitor of f fF between nodes a and b.
func (c *Circuit) AddC(a, b string, f float64) {
	if f < 0 {
		panic(fmt.Sprintf("spice: capacitor %s-%s with negative value %g", a, b, f))
	}
	if f == 0 {
		return
	}
	c.caps = append(c.caps, capacitor{c.Node(a), c.Node(b), f})
}

// AddV attaches a grounded voltage source to the named node.
func (c *Circuit) AddV(node string, w Waveform) {
	c.sources = append(c.sources, source{c.Node(node), w})
}

// AddMOS adds a MOSFET. w is the drawn width in µm for planar models or the
// fin count for multi-gate models; gate capacitances are added automatically
// (half to source, half to drain) along with drain/source junction caps to
// ground.
func (c *Circuit) AddMOS(p device.Params, w float64, drain, gate, src string) {
	weff := p.EffWidth(w)
	c.fets = append(c.fets, mosfet{p, weff, c.Node(drain), c.Node(gate), c.Node(src)})
	cg := p.GateCap(weff)
	c.AddC(gate, src, cg/2)
	c.AddC(gate, drain, cg/2)
	cj := p.JunctionCap(weff)
	c.AddC(drain, Ground, cj)
	c.AddC(src, Ground, cj)
}

// fetCurrent returns the drain-to-source current (into drain, out of source)
// and conductances for the absolute node voltages, handling PMOS polarity.
// Source/drain symmetry lives inside the device model (IdsSym), so terminal
// roles never swap between Newton iterations.
func fetCurrent(m *mosfet, v []float64) (ids float64, gm, gds float64, dEff, sEff int, sign float64) {
	vd, vg, vs := v[m.d], v[m.g], v[m.s]
	sign = 1.0
	if m.params.Kind == device.PMOS {
		vd, vg, vs = -vd, -vg, -vs
		sign = -1
	}
	id, gmv, gdsv := m.params.Derivs(m.w, vg-vs, vd-vs)
	return id, gmv, gdsv, m.d, m.s, sign
}

// Options controls a transient run.
type Options struct {
	Stop float64 // end time, ps
	Step float64 // fixed timestep, ps; default Stop/800
}

// maxNewton bounds Newton iterations per step.
const maxNewton = 150

// stampOp is one recorded matrix/rhs contribution: G[r,c] += v, or, when
// c < 0, rhs[r] += v.
type stampOp struct {
	r, c int
	v    float64
}

// fetStamp holds one FET's linearized contributions — at most six G entries
// and two rhs entries — in the order apply folds them into the system.
type fetStamp struct {
	ops [8]stampOp
	n   int
}

// stampFET linearizes one FET about the node voltages v and records its
// companion-model contributions. Pure: it writes only the returned stamp.
func stampFET(m *mosfet, v []float64, row []int) (st fetStamp) {
	id, gm, gds, dE, sE, sign := fetCurrent(m, v)
	// Current sign·id flows dE→sE (in NMOS convention after swap).
	// Linearize: i = id + gm·Δvgs_eff + gds·Δvds_eff where the
	// effective voltages are sign·(v[g]-v[sE]) and sign·(v[dE]-v[sE]).
	vgsE := sign * (v[m.g] - v[sE])
	vdsE := sign * (v[dE] - v[sE])
	ieq := id - gm*vgsE - gds*vdsE // residual part
	// i_out(dE) = +sign·(ieq + gm·sign(vg-vsE) + gds·sign(vdE-vsE))
	// Record conductances for G (current leaving dE, entering sE); a fixed
	// source node folds into the rhs with its known voltage instead.
	addG := func(nd, src int, g float64) {
		if r := row[nd]; r >= 0 {
			if rs := row[src]; rs >= 0 {
				st.ops[st.n] = stampOp{r, rs, g}
			} else {
				st.ops[st.n] = stampOp{r, -1, -(g * v[src])}
			}
			st.n++
		}
	}
	// d(i_dE)/dv = gm·(δg - δs) + gds·(δd - δs), independent of sign
	// (sign² = 1).
	addG(dE, m.g, gm)
	addG(dE, sE, -(gm + gds))
	addG(dE, dE, gds)
	addG(sE, m.g, -gm)
	addG(sE, sE, gm+gds)
	addG(sE, dE, -gds)
	if r := row[dE]; r >= 0 {
		st.ops[st.n] = stampOp{r, -1, -(sign * ieq)}
		st.n++
	}
	if r := row[sE]; r >= 0 {
		st.ops[st.n] = stampOp{r, -1, sign * ieq}
		st.n++
	}
	return st
}

// apply folds a recorded stamp into the system in its recorded op order.
func (st *fetStamp) apply(G *matrix, rhs []float64) {
	for i := 0; i < st.n; i++ {
		op := st.ops[i]
		if op.c >= 0 {
			G.add(op.r, op.c, op.v)
		} else {
			rhs[op.r] += op.v
		}
	}
}

// Result holds transient waveforms.
type Result struct {
	circ  *Circuit
	Times []float64
	// V[k] is the voltage vector at Times[k].
	V [][]float64
	// SourceCurrent[k][j] is the current in mA flowing OUT of source j's node
	// into the circuit at Times[k].
	SourceCurrent [][]float64
}

// Transient runs a backward-Euler transient analysis. The initial state is
// the DC operating point with all sources at their t=0 values.
func (c *Circuit) Transient(o Options) (*Result, error) {
	if o.Stop <= 0 {
		return nil, fmt.Errorf("spice: non-positive stop time %g", o.Stop)
	}
	h := o.Step
	if h <= 0 {
		h = o.Stop / 800
	}
	n := len(c.names)
	fixed := make([]bool, n)
	fixed[0] = true // ground
	for _, s := range c.sources {
		fixed[s.node] = true
	}
	// Map free nodes to matrix rows.
	row := make([]int, n)
	var free []int
	for i := 0; i < n; i++ {
		row[i] = -1
		if !fixed[i] {
			row[i] = len(free)
			free = append(free, i)
		}
	}
	nf := len(free)

	v := make([]float64, n)
	for node, g := range c.guesses {
		if !fixed[node] {
			v[node] = g
		}
	}
	setSources := func(t float64) {
		for _, s := range c.sources {
			v[s.node] = s.wave.At(t)
		}
	}
	setSources(0)

	G := newMatrix(nf)
	rhs := make([]float64, nf)
	dv := make([]float64, nf)
	vPrev := make([]float64, n)

	// solveStep performs Newton iterations for one system; withCaps=false
	// computes the DC operating point. hStep is the timestep used for the
	// capacitor companion models.
	solveStep := func(withCaps bool, hStep float64) error {
		iters := maxNewton
		if !withCaps {
			// The DC point crawls through exponential subthreshold regions;
			// give it room.
			iters = maxNewton * 4
		}
		lastDelta := math.Inf(1)
		for iter := 0; iter < iters; iter++ {
			G.zero()
			for i := range rhs {
				rhs[i] = 0
			}
			// gmin keeps otherwise-floating nodes non-singular.
			const gmin = 1e-6
			for _, fi := range free {
				G.add(row[fi], row[fi], gmin)
			}
			for _, r := range c.res {
				stampG(G, rhs, row, v, r.a, r.b, r.g)
			}
			if withCaps {
				for _, cp := range c.caps {
					g := cp.c / hStep
					// Companion current source: i = g·((va-vb) - (vaPrev-vbPrev))
					stampG(G, rhs, row, v, cp.a, cp.b, g)
					ieq := g * (vPrev[cp.a] - vPrev[cp.b])
					if ra := row[cp.a]; ra >= 0 {
						rhs[ra] += ieq
					}
					if rb := row[cp.b]; rb >= 0 {
						rhs[rb] -= ieq
					}
				}
			}
			// FET linearization, folded into G/rhs in FET index order.
			for fi := range c.fets {
				st := stampFET(&c.fets[fi], v, row)
				st.apply(G, rhs)
			}
			if nf > 0 {
				if err := G.solve(rhs, dv); err != nil {
					return err
				}
			}
			maxDelta := 0.0
			for k, fi := range free {
				delta := dv[k] - v[fi]
				if math.Abs(delta) > maxDelta {
					maxDelta = math.Abs(delta)
				}
				// Damped update: generous steps early, tight steps late.
				// The tight clamp bounds the damage of occasional wild Newton
				// targets from the exponential subthreshold region.
				limit := 0.3
				if iter > 25 {
					limit = 0.06
				}
				if math.Abs(delta) > limit {
					delta = math.Copysign(limit, delta)
				}
				v[fi] += delta
			}
			if maxDelta < 1e-5 {
				return nil
			}
			// Nearly-floating nodes (off stacks at VDD−Vt) make the voltage
			// delta a poor convergence measure: their potential wiggles while
			// all currents are negligible. Accept on the KCL current residual
			// instead once the easy criterion has failed.
			if iter > 8 && c.kclResidual(v, vPrev, hStep, free, withCaps) < 1e-6 {
				return nil
			}
			lastDelta = maxDelta
		}
		if c.kclResidual(v, vPrev, hStep, free, withCaps) < 1e-4 {
			return nil
		}
		return fmt.Errorf("spice: Newton failed to converge (%d free nodes, residual %.3g V)", nf, lastDelta)
	}

	// DC operating point, with source stepping as a fallback: ramp the
	// sources up from zero so Newton tracks a continuous solution branch.
	if err := solveStep(false, h); err != nil {
		for i := range v {
			v[i] = 0
		}
		for node, g := range c.guesses {
			if !fixed[node] {
				v[node] = g
			}
		}
		ok := true
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			for _, sc := range c.sources {
				v[sc.node] = sc.wave.At(0) * frac
			}
			if err := solveStep(false, h); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("spice: DC operating point did not converge")
		}
		setSources(0)
		if err := solveStep(false, h); err != nil {
			return nil, err
		}
	}

	steps := int(math.Ceil(o.Stop/h)) + 1
	res := &Result{circ: c}
	res.Times = make([]float64, 0, steps)
	res.V = make([][]float64, 0, steps)
	res.SourceCurrent = make([][]float64, 0, steps)
	record := func(t float64) {
		vc := make([]float64, n)
		copy(vc, v)
		res.Times = append(res.Times, t)
		res.V = append(res.V, vc)
		res.SourceCurrent = append(res.SourceCurrent, c.sourceCurrents(v, vPrev, h))
	}
	copy(vPrev, v)
	record(0)

	// advance integrates one interval ending at time t with step hStep,
	// recursively subdividing on Newton failure (classic timestep control).
	var advance func(t, hStep float64, depth int) error
	advance = func(t, hStep float64, depth int) error {
		vSave := make([]float64, n)
		copy(vSave, v)
		setSources(t)
		if err := solveStep(true, hStep); err == nil {
			return nil
		} else if depth == 0 {
			return err
		}
		copy(v, vSave)
		prevSave := make([]float64, n)
		copy(prevSave, vPrev)
		if err := advance(t-hStep/2, hStep/2, depth-1); err != nil {
			copy(vPrev, prevSave)
			return err
		}
		copy(vPrev, v)
		if err := advance(t, hStep/2, depth-1); err != nil {
			copy(vPrev, prevSave)
			return err
		}
		copy(vPrev, prevSave)
		return nil
	}

	for t := h; t <= o.Stop+h/2; t += h {
		if err := advance(t, h, 4); err != nil {
			return nil, err
		}
		record(t)
		copy(vPrev, v)
	}
	return res, nil
}

// kclResidual returns the maximum magnitude (mA) of the KCL violation over
// the free nodes, using exact (non-linearized) element equations.
func (c *Circuit) kclResidual(v, vPrev []float64, h float64, free []int, withCaps bool) float64 {
	res := make([]float64, len(v))
	for _, r := range c.res {
		i := r.g * (v[r.a] - v[r.b])
		res[r.a] += i
		res[r.b] -= i
	}
	if withCaps {
		for _, cp := range c.caps {
			i := cp.c / h * ((v[cp.a] - v[cp.b]) - (vPrev[cp.a] - vPrev[cp.b]))
			res[cp.a] += i
			res[cp.b] -= i
		}
	}
	for fi := range c.fets {
		m := &c.fets[fi]
		id, _, _, dE, sE, sign := fetCurrent(m, v)
		res[dE] += sign * id
		res[sE] -= sign * id
	}
	max := 0.0
	for _, fi := range free {
		if r := math.Abs(res[fi]); r > max {
			max = r
		}
	}
	return max
}

// sourceCurrents computes, for every source, the total current flowing from
// the source node into the rest of the circuit using exact (non-linearized)
// element equations.
func (c *Circuit) sourceCurrents(v, vPrev []float64, h float64) []float64 {
	out := make([]float64, len(c.sources))
	for j, s := range c.sources {
		node := s.node
		i := 0.0
		for _, r := range c.res {
			if r.a == node {
				i += r.g * (v[r.a] - v[r.b])
			} else if r.b == node {
				i += r.g * (v[r.b] - v[r.a])
			}
		}
		for _, cp := range c.caps {
			if cp.a == node {
				i += cp.c / h * ((v[cp.a] - v[cp.b]) - (vPrev[cp.a] - vPrev[cp.b]))
			} else if cp.b == node {
				i += cp.c / h * ((v[cp.b] - v[cp.a]) - (vPrev[cp.b] - vPrev[cp.a]))
			}
		}
		for fi := range c.fets {
			m := &c.fets[fi]
			id, _, _, dE, sE, sign := fetCurrent(m, v)
			if dE == node {
				i += sign * id
			} else if sE == node {
				i -= sign * id
			}
		}
		out[j] = i
	}
	return out
}

// Voltage returns the waveform of the named node.
func (r *Result) Voltage(node string) []float64 {
	i, ok := r.circ.index[node]
	if !ok {
		return nil
	}
	out := make([]float64, len(r.V))
	for k := range r.V {
		out[k] = r.V[k][i]
	}
	return out
}

// CrossTime returns the first time after tMin at which the waveform crosses
// the threshold in the given direction, using linear interpolation. ok is
// false when no crossing exists.
func CrossTime(times, wave []float64, threshold float64, rising bool, tMin float64) (float64, bool) {
	for k := 1; k < len(times); k++ {
		if times[k] < tMin {
			continue
		}
		a, b := wave[k-1], wave[k]
		var crossed bool
		if rising {
			crossed = a < threshold && b >= threshold
		} else {
			crossed = a > threshold && b <= threshold
		}
		if crossed {
			f := (threshold - a) / (b - a)
			return times[k-1] + f*(times[k]-times[k-1]), true
		}
	}
	return 0, false
}

// SlewTime returns the 10%–90% transition time of the waveform between vLow
// and vHigh supply rails, for the first full transition after tMin.
//
// The window is anchored on the transition's 50% crossing: the start is the
// LAST 10% (falling: 90%) crossing before the mid crossing and the end is
// the first 90% (10%) crossing after it. Anchoring matters for stacked
// gates (NAND3/4, NOR3/4): Miller kickback through the switching input's
// gate–drain capacitance displaces the output across the 10% threshold long
// before the true transition at light loads, and taking that first crossing
// inflates the measured slew — which is how non-monotone (decreasing with
// load) slew tables got into the characterized libraries before the lint
// engine's LIB-MONOTONE rule caught them.
func SlewTime(times, wave []float64, vLow, vHigh float64, rising bool, tMin float64) (float64, bool) {
	first := vLow + 0.1*(vHigh-vLow)
	last := vLow + 0.9*(vHigh-vLow)
	if !rising {
		first, last = last, first
	}
	mid := vLow + 0.5*(vHigh-vLow)
	tMid, ok := CrossTime(times, wave, mid, rising, tMin)
	if !ok {
		return 0, false
	}
	t1, ok := lastCrossBefore(times, wave, first, rising, tMin, tMid)
	if !ok {
		return 0, false
	}
	t2, ok := CrossTime(times, wave, last, rising, tMid)
	if ok && t2 > t1 {
		return t2 - t1, true
	}
	return 0, false
}

// lastCrossBefore returns the latest crossing of threshold in (tMin, tMax],
// in the given direction.
func lastCrossBefore(times, wave []float64, threshold float64, rising bool, tMin, tMax float64) (float64, bool) {
	t, found := 0.0, false
	for k := 1; k < len(times); k++ {
		if times[k] < tMin {
			continue
		}
		if times[k-1] > tMax {
			break
		}
		a, b := wave[k-1], wave[k]
		var crossed bool
		if rising {
			crossed = a < threshold && b >= threshold
		} else {
			crossed = a > threshold && b <= threshold
		}
		if crossed {
			f := (threshold - a) / (b - a)
			if tc := times[k-1] + f*(times[k]-times[k-1]); tc <= tMax {
				t, found = tc, true
			}
		}
	}
	return t, found
}

// SourceEnergy integrates the energy delivered BY source j between t0 and t1
// (mA · V · ps = fJ). Positive values mean the source supplied energy.
func (r *Result) SourceEnergy(j int, t0, t1 float64) float64 {
	e := 0.0
	for k := 1; k < len(r.Times); k++ {
		t := r.Times[k]
		if t <= t0 || t > t1 {
			continue
		}
		h := r.Times[k] - r.Times[k-1]
		vNode := r.V[k][r.circ.sources[j].node]
		e += r.SourceCurrent[k][j] * vNode * h
	}
	return e
}
