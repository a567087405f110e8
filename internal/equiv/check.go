package equiv

import (
	"fmt"
	"sort"

	"tmi3d/internal/netlist"
	"tmi3d/internal/sim"
)

// Options configures a check.
type Options struct {
	// Seed drives the deterministic random simulation.
	Seed uint64
}

const (
	// simWords is the number of 64-bit random simulation words used to
	// filter candidate miters before SAT (4 → 256 vectors).
	simWords = 4
	// maxDiagnosed caps how many mismatches get full counterexample replay
	// and diverging-net diagnosis; further mismatching points are still
	// counted.
	maxDiagnosed = 8
)

// regPair is one matched flip-flop pair; Key is the shared cut-point name.
type regPair struct {
	Key      string
	AI, BI   int // instance indices in a and b
	ByName   bool
	BySignat bool
}

// Check proves or refutes logical equivalence of two designs that share
// PI/PO names (as a design and its post-optimization version do). Sequential
// equivalence is reduced to per-cone combinational checks at a register-
// correspondence cut: DFFs are matched by instance name, then leftovers by
// fanin-cone signature refinement; matched Q outputs become shared free
// inputs and each PO plus each matched D pin becomes a compare point.
//
// Every compare point is decided structurally (shared AIG literal), by
// random simulation (a distinguishing vector falls out directly), or by a
// CDCL SAT proof on the miter cone. Signature matching is only a candidate
// heuristic — a wrong match cannot produce a false "equivalent", because the
// D cones of a mismatched pair are themselves compare points.
func Check(a, b *netlist.Design, opt Options) (*Report, error) {
	rep := &Report{
		Subject: fmt.Sprintf("%s vs %s", a.Name, b.Name),
		NameA:   a.Name, NameB: b.Name,
	}

	// Port-set comparison: PO names must agree; PI mismatches make free
	// inputs unconstrained on one side, which is still sound, but a missing
	// PO is an unverifiable point and fails the check.
	poNames := comparePorts(rep, a, b)

	// Pass 1: name-matched registers; leftovers get per-design keys.
	pairs, leftA, leftB := matchByName(a, b)
	if len(leftA) > 0 && len(leftB) > 0 {
		sigPairs, err := matchBySignature(a, b, pairs, leftA, leftB, opt)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, sigPairs...)
	}
	matchedA := map[int]bool{}
	matchedB := map[int]bool{}
	for _, p := range pairs {
		matchedA[p.AI] = true
		matchedB[p.BI] = true
	}
	for _, ri := range seqInstances(a) {
		if !matchedA[ri] {
			rep.Unmatched = append(rep.Unmatched, fmt.Sprintf("%s (in %s)", a.Instances[ri].Name, a.Name))
		}
	}
	for _, ri := range seqInstances(b) {
		if !matchedB[ri] {
			rep.Unmatched = append(rep.Unmatched, fmt.Sprintf("%s (in %s)", b.Instances[ri].Name, b.Name))
		}
	}

	// Final compile with the agreed correspondence keys.
	g := newAIG(andEstimate(a, b))
	src := newInputSource(g)
	keyA := map[int]string{}
	keyB := map[int]string{}
	for _, p := range pairs {
		keyA[p.AI] = p.Key
		keyB[p.BI] = p.Key
	}
	ca, err := compile(a, src, regKeyFn(a, keyA, "a:"))
	if err != nil {
		return nil, err
	}
	cb, err := compile(b, src, regKeyFn(b, keyB, "b:"))
	if err != nil {
		return nil, err
	}

	// Compare points: POs by name, matched register pairs by D literal.
	type point struct {
		label  string
		la, lb Lit
		pair   *regPair
		poName string
	}
	var points []point
	for _, name := range poNames {
		points = append(points, point{
			label: "output " + name, la: ca.POs[name], lb: cb.POs[name], poName: name,
		})
	}
	for i := range pairs {
		p := &pairs[i]
		points = append(points, point{
			label: "register " + p.Key, la: ca.RegD[p.AI], lb: cb.RegD[p.BI], pair: p,
		})
	}
	rep.Points = len(points)

	// Random-simulation candidate filtering: one linear sweep of the shared
	// AIG decides most non-structural points without SAT. It runs at the
	// first non-structural point, so a check whose points all close
	// structurally (a logic-neutral flow stage) never holds the node words.
	var words [][]uint64
	for _, pt := range points {
		if pt.la == pt.lb {
			rep.Structural++
			continue
		}
		if words == nil {
			words = simulate(g, opt.Seed)
		}
		// Sim filter: any differing word yields a counterexample bit.
		var cex map[int]bool
		for _, ws := range words {
			wa, wb := LitWord(ws, pt.la), LitWord(ws, pt.lb)
			if diff := wa ^ wb; diff != 0 {
				cex = extractSimBit(g, ws, trailingZeros(diff))
				rep.BySim++
				break
			}
		}
		if cex == nil {
			sat, model, solver := solveMiter(g, pt.la, pt.lb)
			rep.BySAT++
			if solver != nil {
				rep.SATConflicts += solver.Stats.Conflicts
				rep.SATDecisions += solver.Stats.Decisions
			}
			if !sat {
				continue
			}
			cex = model
		}
		mm := Mismatch{Point: pt.label}
		if pt.pair != nil {
			mm.RegisterA = a.Instances[pt.pair.AI].Name
			mm.RegisterB = b.Instances[pt.pair.BI].Name
		}
		rep.Failed++
		if len(rep.Mismatches) < maxDiagnosed {
			diagnose(&mm, g, src, ca, cb, pt.la, pt.lb, cex, pairs, pt.poName)
			rep.Mismatches = append(rep.Mismatches, mm)
		}
	}
	return rep, nil
}

// simulate runs simWords rounds of random simulation over the AIG, each from
// PI words drawn from seed, and returns every round's node words.
func simulate(g *AIG, seed uint64) [][]uint64 {
	words := make([][]uint64, simWords)
	rng := seed*0x9e3779b97f4a7c15 + 0xda3e39cb94b95bdb
	piWords := make([]uint64, g.NumPIs())
	for w := range words {
		for i := range piWords {
			rng = xorshift(rng + uint64(i)*0x2545f4914f6cdd1d)
			piWords[i] = rng
		}
		words[w] = g.SimWords(piWords)
	}
	return words
}

// xorshift is one step of the deterministic 64-bit xorshift PRNG.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// extractSimBit rebuilds the counterexample assignment for one bit position
// of a simulation round from the node words of that round.
func extractSimBit(g *AIG, nodeWords []uint64, bit int) map[int]bool {
	cex := map[int]bool{}
	for i, n := range g.pis {
		cex[i] = nodeWords[n]>>uint(bit)&1 == 1
	}
	return cex
}

// seqInstances lists the DFF instance indices of a design.
func seqInstances(d *netlist.Design) []int {
	var out []int
	for i := range d.Instances {
		if d.Instances[i].Func == "DFF" {
			out = append(out, i)
		}
	}
	return out
}

// comparePorts records PO/PI set differences and returns the common PO
// names, sorted.
func comparePorts(rep *Report, a, b *netlist.Design) []string {
	var common []string
	for name := range a.POs {
		if _, ok := b.POs[name]; ok {
			common = append(common, name)
		} else {
			rep.MissingPorts = append(rep.MissingPorts,
				fmt.Sprintf("output %s only in %s", name, a.Name))
		}
	}
	for name := range b.POs {
		if _, ok := a.POs[name]; !ok {
			rep.MissingPorts = append(rep.MissingPorts,
				fmt.Sprintf("output %s only in %s", name, b.Name))
		}
	}
	for name := range a.PIs {
		if _, ok := b.PIs[name]; !ok {
			rep.MissingPorts = append(rep.MissingPorts,
				fmt.Sprintf("input %s only in %s", name, a.Name))
		}
	}
	for name := range b.PIs {
		if _, ok := a.PIs[name]; !ok {
			rep.MissingPorts = append(rep.MissingPorts,
				fmt.Sprintf("input %s only in %s", name, b.Name))
		}
	}
	sort.Strings(common)
	sort.Strings(rep.MissingPorts)
	return common
}

// matchByName pairs DFFs with identical instance names.
func matchByName(a, b *netlist.Design) (pairs []regPair, leftA, leftB []int) {
	bByName := map[string]int{}
	for _, ri := range seqInstances(b) {
		bByName[b.Instances[ri].Name] = ri
	}
	usedB := map[int]bool{}
	for _, ri := range seqInstances(a) {
		if bi, ok := bByName[a.Instances[ri].Name]; ok && !usedB[bi] {
			pairs = append(pairs, regPair{Key: a.Instances[ri].Name, AI: ri, BI: bi, ByName: true})
			usedB[bi] = true
		} else {
			leftA = append(leftA, ri)
		}
	}
	for _, ri := range seqInstances(b) {
		if !usedB[ri] {
			leftB = append(leftB, ri)
		}
	}
	return pairs, leftA, leftB
}

// andEstimate estimates the AND nodes a miter of a and b compiles to: one
// per instance pin beyond the first, over the larger design (the two
// designs of a check mostly hash onto the same nodes). Across the benchmark
// circuits it is within 0.7x–1.1x of the count, and 4x over on DES.
func andEstimate(a, b *netlist.Design) int {
	est := 0
	for _, d := range []*netlist.Design{a, b} {
		n := 0
		for i := range d.Instances {
			n += len(d.Instances[i].Pins) - 1
		}
		est = max(est, n)
	}
	return est
}

// matchBySignature matches leftover registers by iteratively refined
// fanin-cone signatures: every unmatched register starts in one class,
// classes seed the random words of their members' Q inputs, and each round
// splits classes by the simulated signature of the members' next-state (D)
// cones. Classes that stabilize with exactly one register from each design
// become candidate pairs.
func matchBySignature(a, b *netlist.Design, named []regPair, leftA, leftB []int, opt Options) ([]regPair, error) {
	// Compile once with unique keys per leftover register.
	g := newAIG(andEstimate(a, b))
	src := newInputSource(g)
	keyA := map[int]string{}
	keyB := map[int]string{}
	for _, p := range named {
		keyA[p.AI] = p.Key
		keyB[p.BI] = p.Key
	}
	ca, err := compile(a, src, regKeyFn(a, keyA, "a:"))
	if err != nil {
		return nil, err
	}
	cb, err := compile(b, src, regKeyFn(b, keyB, "b:"))
	if err != nil {
		return nil, err
	}

	type member struct {
		inA  bool
		inst int
		dLit Lit
		qPI  int // PI ordinal of the register's Q cut input
	}
	var members []member
	for _, ri := range leftA {
		members = append(members, member{true, ri, ca.RegD[ri],
			mustPIIndex(g, src, "reg:a:"+a.Instances[ri].Name)})
	}
	for _, ri := range leftB {
		members = append(members, member{false, ri, cb.RegD[ri],
			mustPIIndex(g, src, "reg:b:"+b.Instances[ri].Name)})
	}

	class := make([]uint64, len(members)) // all zero: one initial class
	piWords := make([]uint64, g.NumPIs())
	qPIClass := map[int]int{} // PI ordinal → member index
	for mi, m := range members {
		qPIClass[m.qPI] = mi
	}
	rng := opt.Seed + 0x6a09e667f3bcc909
	for round := 0; round < 8; round++ {
		// Seed words: shared inputs randomly, leftover Q inputs per class.
		for i := range piWords {
			if mi, ok := qPIClass[i]; ok {
				piWords[i] = splitmix(class[mi]*0x9e3779b97f4a7c15 + uint64(round+1))
			} else {
				rng = xorshift(rng + uint64(i) + uint64(round)*0x9e3779b9)
				piWords[i] = rng
			}
		}
		ws := g.SimWords(piWords)
		next := make([]uint64, len(members))
		for mi, m := range members {
			sig := LitWord(ws, m.dLit)
			next[mi] = splitmix(class[mi] ^ splitmix(sig))
		}
		stable := true
		for mi := range members {
			if next[mi] != class[mi] {
				stable = false
			}
			class[mi] = next[mi]
		}
		if stable && round > 0 {
			break
		}
	}

	// Pair singleton A/B classes.
	byClass := map[uint64][]int{}
	for mi := range members {
		byClass[class[mi]] = append(byClass[class[mi]], mi)
	}
	var out []regPair
	// Deterministic order: iterate members, not the map.
	for mi, m := range members {
		if !m.inA {
			continue
		}
		grp := byClass[class[mi]]
		if len(grp) != 2 {
			continue
		}
		other := members[grp[0]]
		if grp[0] == mi {
			other = members[grp[1]]
		}
		if other.inA == m.inA {
			continue
		}
		out = append(out, regPair{
			Key: a.Instances[m.inst].Name + "~" + b.Instances[other.inst].Name,
			AI:  m.inst, BI: other.inst, BySignat: true,
		})
	}
	return out, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mustPIIndex(g *AIG, src *inputSource, key string) int {
	l, ok := src.lits[key]
	if !ok {
		return -1
	}
	return g.PIIndex(l)
}

// regKeyFn builds the compile regKey closure: matched registers use the
// pair key, leftovers a per-design prefix plus instance name.
func regKeyFn(d *netlist.Design, keys map[int]string, prefix string) func(int) string {
	return func(inst int) string {
		if k, ok := keys[inst]; ok {
			return k
		}
		return prefix + d.Instances[inst].Name
	}
}

// diagnose fills in the counterexample vector, replays it through
// internal/sim on both designs with single-cycle semantics, and walks the
// common nets to name the earliest diverging one.
func diagnose(mm *Mismatch, g *AIG, src *inputSource, ca, cb *Compiled,
	la, lb Lit, cex map[int]bool, pairs []regPair, poName string) {
	a, b := ca.Design, cb.Design

	// Assignment by cut-input name.
	mm.Inputs = map[string]bool{}
	mm.StateA = map[string]bool{}
	mm.StateB = map[string]bool{}
	assign := make([]bool, g.NumPIs())
	for pi, val := range cex {
		if pi >= 0 && pi < len(assign) {
			assign[pi] = val
		}
	}
	keyToB := map[string]string{}
	keyToA := map[string]string{}
	for _, p := range pairs {
		keyToA[p.Key] = a.Instances[p.AI].Name
		keyToB[p.Key] = b.Instances[p.BI].Name
	}
	for i, key := range src.order {
		val := assign[i]
		switch {
		case len(key) > 3 && key[:3] == "pi:":
			if name := key[3:]; name != "clk" {
				mm.Inputs[name] = val
			}
		case len(key) > 4 && key[:4] == "reg:":
			k := key[4:]
			if an, ok := keyToA[k]; ok {
				mm.StateA[an] = val
			} else if len(k) > 2 && k[:2] == "a:" {
				mm.StateA[k[2:]] = val
			}
			if bn, ok := keyToB[k]; ok {
				mm.StateB[bn] = val
			} else if len(k) > 2 && k[:2] == "b:" {
				mm.StateB[k[2:]] = val
			}
		}
	}

	// AIG-level expected values at the failing point.
	vals := g.Eval(assign, []Lit{la, lb})
	mm.ValA, mm.ValB = vals[0], vals[1]

	// Replay through the gate-level simulator.
	ra, errA := sim.RunCycle(a, mm.Inputs, mm.StateA)
	rb, errB := sim.RunCycle(b, mm.Inputs, mm.StateB)
	if errA != nil || errB != nil {
		mm.Note = "replay failed: " + errString(errA, errB)
		return
	}
	va, vb := ra.Values(), rb.Values()
	mm.Replayed = true

	// Confirm the divergence at the compare point itself.
	if poName != "" {
		pa, pb := va[a.POs[poName]], vb[b.POs[poName]]
		if pa == mm.ValA && pb == mm.ValB {
			mm.Confirmed = true
		}
	} else {
		mm.Confirmed = true // register D nets checked via diverging-net walk
	}

	// Earliest diverging net: among nets present in both designs by name
	// with different replayed values, the one of minimum logic depth in b.
	// a is often a clone without a name index, so the walk builds its own.
	aNet := make(map[string]int, len(a.Nets))
	for i := range a.Nets {
		aNet[a.Nets[i].Name] = i
	}
	depthB := netDepths(b)
	bestDepth := int(^uint(0) >> 1)
	for ni := range b.Nets {
		name := b.Nets[ni].Name
		ai, ok := aNet[name]
		if !ok {
			continue
		}
		if va[ai] == vb[ni] {
			continue
		}
		if depthB[ni] < bestDepth || (depthB[ni] == bestDepth && name < mm.DivergingNet) {
			bestDepth = depthB[ni]
			mm.DivergingNet = name
			mm.DivergeA, mm.DivergeB = va[ai], vb[ni]
		}
	}

	// Prune the reported vectors to the failing point's support — the full
	// design state is replay-equivalent but unreadable on large designs.
	// Replay above already ran on the full vectors, so this only trims what
	// the report shows; values outside the support cannot affect the point.
	support := map[int]bool{}
	for _, n := range g.cone([]Lit{la, lb}) {
		if g.nodes[n].kind == kindPI {
			support[g.PIIndex(Lit(n<<1))] = true
		}
	}
	prune := func(m map[string]bool, kind string) {
		for i, key := range src.order {
			if support[i] {
				continue
			}
			switch kind {
			case "pi":
				if len(key) > 3 && key[:3] == "pi:" {
					delete(m, key[3:])
				}
			case "a":
				if an, ok := keyToA[trimReg(key)]; ok && len(key) > 4 && key[:4] == "reg:" {
					delete(m, an)
				} else if len(key) > 6 && key[:6] == "reg:a:" {
					delete(m, key[6:])
				}
			case "b":
				if bn, ok := keyToB[trimReg(key)]; ok && len(key) > 4 && key[:4] == "reg:" {
					delete(m, bn)
				} else if len(key) > 6 && key[:6] == "reg:b:" {
					delete(m, key[6:])
				}
			}
		}
	}
	prune(mm.Inputs, "pi")
	prune(mm.StateA, "a")
	prune(mm.StateB, "b")
}

func trimReg(key string) string {
	if len(key) > 4 && key[:4] == "reg:" {
		return key[4:]
	}
	return key
}

func errString(a, b error) string {
	switch {
	case a != nil && b != nil:
		return a.Error() + "; " + b.Error()
	case a != nil:
		return a.Error()
	case b != nil:
		return b.Error()
	}
	return ""
}

// netDepths computes combinational logic depth per net: 0 for PI, DFF-driven
// and undriven nets, else 1 + max over the driver's input nets.
func netDepths(d *netlist.Design) []int {
	depth := make([]int, len(d.Nets))
	done := make([]bool, len(d.Nets))
	var stack []int
	for root := range d.Nets {
		if done[root] {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			if done[ni] {
				stack = stack[:len(stack)-1]
				continue
			}
			drv := d.Nets[ni].Driver
			if drv.Inst < 0 || d.Instances[drv.Inst].Func == "DFF" {
				depth[ni] = 0
				done[ni] = true
				stack = stack[:len(stack)-1]
				continue
			}
			inst := &d.Instances[drv.Inst]
			ready := true
			maxIn := 0
			for _, p := range inst.Pins {
				pn := p.Net
				if p.Name == drv.Pin {
					continue
				}
				// Only input pins feed depth; output pins of multi-output
				// cells (HA/FA) are driven by the same instance.
				if isOutputPinOf(d, drv.Inst, p.Name) {
					continue
				}
				if !done[pn] {
					if pn != ni { // guard against malformed self-loops
						stack = append(stack, pn)
						ready = false
					}
					continue
				}
				if depth[pn] > maxIn {
					maxIn = depth[pn]
				}
			}
			if !ready {
				continue
			}
			depth[ni] = maxIn + 1
			done[ni] = true
			stack = stack[:len(stack)-1]
		}
	}
	return depth
}

// isOutputPinOf reports whether the pin drives a net (i.e. the net records
// this instance+pin as its driver).
func isOutputPinOf(d *netlist.Design, inst int, pin string) bool {
	ni, ok := d.Instances[inst].Pins.Net(pin)
	if !ok || ni < 0 || ni >= len(d.Nets) {
		return false
	}
	drv := d.Nets[ni].Driver
	return drv.Inst == inst && drv.Pin == pin
}
