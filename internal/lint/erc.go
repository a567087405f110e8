// Electrical rule checks over gate-level netlists — the Encounter netlist
// sanity passes of the paper's flow (checkDesign / check_netlist): driver
// multiplicity, floating inputs, dangling outputs, combinational loops,
// mapping completeness, fanout ceilings and dead logic.
package lint

import (
	"fmt"
	"slices"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
)

// DesignOptions configures CheckDesign.
type DesignOptions struct {
	// Lib enables library-resolution checks (LIB-NOCELL, bound-cell lookup)
	// when non-nil.
	Lib *liberty.Library
	// MaxFanout is the ERC-FANOUT ceiling per net (clock excluded).
	// 0 selects DefaultMaxFanout.
	MaxFanout int
}

// DefaultMaxFanout is the ERC-FANOUT ceiling when none is configured. The
// synthesis fanout limit is 16; anything above 64 escaped every buffering
// pass and will wreck timing and slew.
const DefaultMaxFanout = 64

// CheckDesign runs the netlist rules (ERC-*, plus the design-side LIB-*
// resolution rules when a library is supplied) and returns the report.
func CheckDesign(d *netlist.Design, opts DesignOptions) *Report {
	rep := NewReport("design " + d.Name)
	if opts.MaxFanout == 0 {
		opts.MaxFanout = DefaultMaxFanout
	}
	// The design is post-synthesis, enabling ERC-UNMAPPED, iff any instance
	// carries a bound cell name.
	mapped := false
	for i := range d.Instances {
		if d.Instances[i].CellName != "" {
			mapped = true
			break
		}
	}

	// ERC-STRUCT: the structural sweep shared with Design.Validate.
	for _, v := range d.Violations() {
		where := ""
		switch {
		case v.Inst >= 0 && v.Inst < len(d.Instances):
			where = "instance " + d.Instances[v.Inst].Name
		case v.Net >= 0 && v.Net < len(d.Nets):
			where = "net " + d.Nets[v.Net].Name
		default:
			where = "design"
		}
		rep.add("ERC-STRUCT", where, "%s (%s)", v.Msg, v.Kind)
	}

	checkDrivers(rep, d)
	checkLoops(rep, d)
	checkFanout(rep, d, opts.MaxFanout)
	checkReachability(rep, d)
	checkMapping(rep, d, opts.Lib, mapped)
	return rep
}

// checkDrivers enforces ERC-MULTIDRIVE, ERC-FLOATINPUT and ERC-DANGLE by
// counting true driver connections per net: instance output pins (per the
// cellgen function definition) plus primary-input ports.
func checkDrivers(rep *Report, d *netlist.Design) {
	// forEachDriver visits every driver connection once: instance output
	// pins (function direction unknown: skipped, LIB-NOCELL reports it;
	// out-of-range nets: skipped, ERC-STRUCT reports them), then PI ports.
	forEachDriver := func(visit func(ni int, inst *netlist.Instance, pin string)) {
		for i := range d.Instances {
			inst := &d.Instances[i]
			def, ok := cellgen.Lookup(inst.Func)
			if !ok {
				continue
			}
			for _, pin := range def.Outputs {
				if ni, ok := inst.Pins[pin]; ok && ni >= 0 && ni < len(d.Nets) {
					visit(ni, inst, pin)
				}
			}
		}
		for port, ni := range d.PIs {
			if ni >= 0 && ni < len(d.Nets) {
				visit(ni, nil, port)
			}
		}
	}
	drivers := make([]int32, len(d.Nets))
	multi := 0
	forEachDriver(func(ni int, _ *netlist.Instance, _ string) {
		if drivers[ni]++; drivers[ni] == 2 {
			multi++
		}
	})
	// Driver names ("inst.PIN" or "PI port") only for the multiply driven
	// nets; each list is sorted, so visit order does not matter.
	var names map[int][]string
	if multi > 0 {
		names = make(map[int][]string, multi)
		forEachDriver(func(ni int, inst *netlist.Instance, pin string) {
			if drivers[ni] < 2 {
				return
			}
			if inst != nil {
				names[ni] = append(names[ni], inst.Name+"."+pin)
			} else {
				names[ni] = append(names[ni], "PI "+pin)
			}
		})
	}

	poNets := make([]bool, len(d.Nets))
	for _, ni := range d.POs {
		if ni >= 0 && ni < len(d.Nets) {
			poNets[ni] = true
		}
	}
	for ni := range d.Nets {
		n := &d.Nets[ni]
		if drivers[ni] > 1 {
			ds := names[ni]
			sort.Strings(ds)
			rep.add("ERC-MULTIDRIVE", "net "+n.Name,
				"driven by %d connections: %s", len(ds), joinMax(ds, 6))
		}
		undriven := n.Driver.Inst == -2 && drivers[ni] == 0
		if undriven && len(n.Sinks) > 0 {
			rep.add("ERC-FLOATINPUT", "net "+n.Name,
				"%d sink pin(s) on a net with no driver", len(n.Sinks))
		}
		if len(n.Sinks) == 0 && !poNets[ni] && ni != d.ClockNet {
			if undriven {
				rep.add("ERC-DANGLE", "net "+n.Name, "net is fully disconnected")
			} else {
				rep.add("ERC-DANGLE", "net "+n.Name, "driven net has no sinks")
			}
		}
	}
}

// checkLoops finds combinational cycles with Tarjan's SCC algorithm over the
// instance graph, excluding sequential cells (a flip-flop's output does not
// depend combinationally on its inputs, so it legally breaks a cycle).
func checkLoops(rep *Report, d *netlist.Design) {
	n := len(d.Instances)
	comb := make([]bool, n)
	for i := range d.Instances {
		def, ok := cellgen.Lookup(d.Instances[i].Func)
		comb[i] = !ok || !def.Seq
	}
	// Combinational fanout edges in compressed-row form: the successors of
	// instance v are succ[start[v]:start[v+1]], in net order.
	eachEdge := func(visit func(from, to int)) {
		for ni := range d.Nets {
			drv := d.Nets[ni].Driver
			if drv.Inst < 0 || drv.Inst >= n || !comb[drv.Inst] {
				continue
			}
			for _, s := range d.Nets[ni].Sinks {
				if s.Inst >= 0 && s.Inst < n && comb[s.Inst] {
					visit(drv.Inst, s.Inst)
				}
			}
		}
	}
	start := make([]int, n+1)
	eachEdge(func(from, _ int) { start[from+1]++ })
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	succ := make([]int, start[n])
	fill := append([]int(nil), start[:n]...)
	eachEdge(func(from, to int) {
		succ[fill[from]] = to
		fill[from]++
	})
	adj := func(v int) []int { return succ[start[v]:start[v+1]] }

	// Iterative Tarjan (the benchmark netlists reach 200k+ instances;
	// recursion would overflow the stack).
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	next := 0
	type frame struct{ v, ei int }
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited || !comb[root] {
			continue
		}
		call = append(call[:0], frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if out := adj(f.v); f.ei < len(out) {
				w := out[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots an SCC: the stack from v up.
			k := len(stack) - 1
			for stack[k] != v {
				k--
			}
			scc := stack[k:]
			stack = stack[:k]
			for _, w := range scc {
				onStack[w] = false
			}
			if len(scc) == 1 && !slices.Contains(adj(v), v) {
				continue
			}
			scc = slices.Clone(scc)
			sort.Ints(scc)
			names := make([]string, 0, len(scc))
			for _, w := range scc {
				names = append(names, d.Instances[w].Name)
			}
			rep.add("ERC-LOOP", "instance "+names[0],
				"combinational cycle through %d instance(s): %s", len(scc), joinMax(names, 6))
		}
	}
}

// checkFanout enforces the per-net fanout ceiling (ERC-FANOUT).
func checkFanout(rep *Report, d *netlist.Design, ceiling int) {
	for ni := range d.Nets {
		if ni == d.ClockNet {
			continue
		}
		if f := d.Nets[ni].Fanout(); f > ceiling {
			rep.add("ERC-FANOUT", "net "+d.Nets[ni].Name,
				"fanout %d exceeds ceiling %d", f, ceiling)
		}
	}
}

// checkReachability walks backwards from the primary outputs and reports
// instances that can never influence one (ERC-UNREACHABLE), aggregated into
// a single diagnostic. Designs without POs are skipped.
func checkReachability(rep *Report, d *netlist.Design) {
	if len(d.POs) == 0 {
		return
	}
	seenNet := make([]bool, len(d.Nets))
	seenInst := make([]bool, len(d.Instances))
	var work []int
	for _, ni := range d.POs {
		if ni >= 0 && ni < len(d.Nets) && !seenNet[ni] {
			seenNet[ni] = true
			work = append(work, ni)
		}
	}
	for len(work) > 0 {
		ni := work[len(work)-1]
		work = work[:len(work)-1]
		drv := d.Nets[ni].Driver
		if drv.Inst < 0 || drv.Inst >= len(d.Instances) || seenInst[drv.Inst] {
			continue
		}
		seenInst[drv.Inst] = true
		for pin, pn := range d.Instances[drv.Inst].Pins {
			if pin == drv.Pin || pn < 0 || pn >= len(d.Nets) || seenNet[pn] {
				continue
			}
			seenNet[pn] = true
			work = append(work, pn)
		}
	}
	var dead []string
	for i := range d.Instances {
		if !seenInst[i] {
			dead = append(dead, d.Instances[i].Name)
		}
	}
	if len(dead) > 0 {
		rep.add("ERC-UNREACHABLE", "design",
			"%d instance(s) cannot reach any primary output: %s", len(dead), joinMax(dead, 8))
	}
}

// checkMapping enforces ERC-UNMAPPED plus the design-side library rules:
// LIB-NOCELL (function/cell resolution) and LIB-PINSET (instance pin names
// versus the function template).
func checkMapping(rep *Report, d *netlist.Design, lib *liberty.Library, mapped bool) {
	badFunc := map[string]bool{}
	for i := range d.Instances {
		inst := &d.Instances[i]
		def, known := cellgen.Lookup(inst.Func)
		if !known {
			if !badFunc[inst.Func] {
				badFunc[inst.Func] = true
				rep.add("LIB-NOCELL", "instance "+inst.Name,
					"function %q has no cellgen template", inst.Func)
			}
		} else if foreignPin(def, inst) {
			for _, pin := range inst.SortedPins() {
				if _, ok := def.Dir(pin); !ok {
					rep.add("LIB-PINSET", "instance "+inst.Name,
						"pin %q is not a port of function %q", pin, inst.Func)
				}
			}
		}
		if mapped && inst.CellName == "" {
			rep.add("ERC-UNMAPPED", "instance "+inst.Name,
				"no bound library cell for function %q", inst.Func)
		}
		if lib == nil {
			continue
		}
		if known && len(lib.Variants(inst.Func)) == 0 && !badFunc[inst.Func] {
			badFunc[inst.Func] = true
			rep.add("LIB-NOCELL", "instance "+inst.Name,
				"function %q has no cells in the %v/%v library", inst.Func, lib.Node, lib.Mode)
		}
		if inst.CellName != "" && lib.Cell(inst.CellName) == nil {
			rep.add("LIB-NOCELL", "instance "+inst.Name,
				"bound cell %q not in the %v/%v library", inst.CellName, lib.Node, lib.Mode)
		}
	}
}

// foreignPin reports whether the instance carries a pin that is not a port of
// its function's template. It checks without sorting, so the common clean
// instance never pays for SortedPins.
func foreignPin(def *cellgen.CellDef, inst *netlist.Instance) bool {
	for pin := range inst.Pins {
		if _, ok := def.Dir(pin); !ok {
			return true
		}
	}
	return false
}

func joinMax(names []string, limit int) string {
	if len(names) <= limit {
		return join(names)
	}
	return fmt.Sprintf("%s, +%d more", join(names[:limit]), len(names)-limit)
}

func join(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
