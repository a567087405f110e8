// The lint subcommand runs the design-integrity engine standalone: it
// synthesizes a benchmark through the flow's own front end (flow.Synthesize,
// 2D, gates off) and lints the mapped netlist the flow would place,
// optionally the cell libraries and folded layouts too, writing a structured
// report to stdout.
//
// Usage:
//
//	tmi3d lint -circuit AES -node 45               # JSON report, exit 0 if clean
//	tmi3d lint -all -format text                   # designs + libraries + layouts
//	tmi3d lint -circuit DES -corrupt multidrive,loop  # exit 1, names the rules
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

func lintMain(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	circuit := fs.String("circuit", "AES", "benchmark to lint: FPU, AES, LDPC, DES, M256")
	nodeF := fs.String("node", "45", "process node: 45 or 7")
	scale := fs.Float64("scale", 0.25, "circuit scale (1.0 = paper size)")
	libs := fs.Bool("libs", false, "also lint both cell libraries at the node")
	cells := fs.Bool("cells", false, "also lint the 2D and folded T-MI cell layouts")
	all := fs.Bool("all", false, "lint every benchmark plus libraries and layouts")
	format := fs.String("format", "json", "report format: json or text")
	corrupt := fs.String("corrupt", "", "comma list of defects to inject post-synthesis: multidrive, loop, float, swapgate, dropinv")
	fs.Parse(args)

	node, err := tech.ParseNode(*nodeF)
	if err != nil {
		log.Fatal(err)
	}

	var reports []*lint.Report
	names := []string{*circuit}
	if *all {
		names = circuits.Names
	}
	for _, name := range names {
		rep, err := lintCircuit(name, node, *scale, *corrupt)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if *libs || *all {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			lib, err := liberty.Default(node, mode)
			if err != nil {
				log.Fatal(err)
			}
			reports = append(reports, lint.CheckLibrary(lib))
		}
	}
	if *cells || *all {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			reports = append(reports, lint.CheckCells(mode))
		}
	}

	switch *format {
	case "text":
		for _, rep := range reports {
			if err := rep.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	default:
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
	}

	for _, rep := range reports {
		if !rep.Clean() {
			os.Exit(1)
		}
	}
}

// synthesize runs the flow's own front end (flow.Synthesize) for one
// benchmark on the 2D library with the flow's gates off: lint and equiv
// check the netlist the flow synthesizes, and report on it themselves.
func synthesize(name string, node tech.Node, scale float64) (lib *liberty.Library, src, mapped *netlist.Design, err error) {
	return flow.Synthesize(flow.Config{Circuit: name, Scale: scale, Node: node, Mode: tech.Mode2D,
		Lint: lint.GateOff, Equiv: lint.GateOff})
}

// lintCircuit synthesizes one benchmark and lints the mapped netlist.
func lintCircuit(name string, node tech.Node, scale float64, corrupt string) (*lint.Report, error) {
	lib, _, d, err := synthesize(name, node, scale)
	if err != nil {
		return nil, err
	}
	for _, kind := range strings.Split(corrupt, ",") {
		if kind = strings.TrimSpace(kind); kind != "" {
			if err := injectDefect(d, kind); err != nil {
				return nil, err
			}
		}
	}
	rep := lint.CheckDesign(d, lint.DesignOptions{Lib: lib})
	rep.Subject = fmt.Sprintf("design %s@%v", name, node)
	return rep, nil
}

// injectDefect deliberately corrupts a mapped netlist so the lint rules have
// something to catch — the acceptance check for the ERC engine.
func injectDefect(d *netlist.Design, kind string) error {
	switch kind {
	case "multidrive":
		// Rewire a second instance's output onto a net that already has a
		// driver: two template output pins on one net.
		first := -1
		var firstNet int
		for i := range d.Instances {
			pin, net, ok := outputPin(d, i)
			if !ok {
				continue
			}
			if first < 0 {
				first, firstNet = i, net
				_ = pin
				continue
			}
			d.Instances[i].Pins.Set(pin, firstNet)
			return nil
		}
		return fmt.Errorf("corrupt multidrive: need two driving instances")
	case "loop":
		// Feed a combinational gate's own output back into one of its inputs.
		for i := range d.Instances {
			def, ok := cellgen.Template(d.Instances[i].Func)
			if !ok || def.Seq {
				continue
			}
			pin, net, ok := outputPin(d, i)
			if !ok || len(def.Inputs) == 0 {
				continue
			}
			_ = pin
			in := def.Inputs[0]
			old, exists := d.Instances[i].Pins.Net(in)
			if !exists {
				continue
			}
			removeSink(&d.Nets[old], netlist.PinRef{Inst: i, Pin: in})
			d.Instances[i].Pins.Set(in, net)
			d.Nets[net].Sinks = append(d.Nets[net].Sinks, netlist.PinRef{Inst: i, Pin: in})
			return nil
		}
		return fmt.Errorf("corrupt loop: no combinational instance found")
	case "float":
		// Point an instance input at a fresh net nothing drives.
		for i := range d.Instances {
			def, ok := cellgen.Template(d.Instances[i].Func)
			if !ok || len(def.Inputs) == 0 {
				continue
			}
			in := def.Inputs[0]
			old, exists := d.Instances[i].Pins.Net(in)
			if !exists {
				continue
			}
			removeSink(&d.Nets[old], netlist.PinRef{Inst: i, Pin: in})
			ni := len(d.Nets)
			d.Nets = append(d.Nets, netlist.Net{
				Name:   "lint_float",
				Driver: netlist.PinRef{Inst: -2},
				Sinks:  []netlist.PinRef{{Inst: i, Pin: in}},
			})
			d.Instances[i].Pins.Set(in, ni)
			return nil
		}
		return fmt.Errorf("corrupt float: no instance with inputs found")
	case "swapgate":
		// Swap every AND/OR-family gate for its dual (AND2↔OR2, NAND2↔NOR2).
		// Pin names and drive-strength sets are identical, so every ERC and
		// library rule still passes — only formal equivalence checking
		// catches it. All matching gates are swapped because any single gate
		// may sit in a dead cone or be masked at every compare point (a
		// single-gate swap of FPU@0.1 proves equivalent), which would make
		// the corruption a functional no-op.
		duals := map[string]string{"AND2": "OR2", "OR2": "AND2", "NAND2": "NOR2", "NOR2": "NAND2"}
		swapped := 0
		for i := range d.Instances {
			inst := &d.Instances[i]
			dual, ok := duals[inst.Func]
			if !ok {
				continue
			}
			if inst.CellName != "" {
				inst.CellName = dual + strings.TrimPrefix(inst.CellName, inst.Func)
			}
			inst.Func = dual
			swapped++
		}
		if swapped == 0 {
			return fmt.Errorf("corrupt swapgate: no two-input AND/OR-family gate found")
		}
		return nil
	case "dropinv":
		// Delete an inverter and reconnect its sinks to its input — the
		// netlist stays fully connected and ERC-clean (the dangling output
		// net is removed too), but the logic is complemented downstream.
		for i := range d.Instances {
			inst := &d.Instances[i]
			if inst.Func != "INV" {
				continue
			}
			an, okA := inst.Pins.Net("A")
			zn, okZ := inst.Pins.Net("Z")
			if !okA || !okZ {
				continue
			}
			onlyGates := true
			for _, s := range d.Nets[zn].Sinks {
				if s.Inst < 0 {
					onlyGates = false // keep PO rewiring out of the picture
					break
				}
			}
			if !onlyGates || len(d.Nets[zn].Sinks) == 0 {
				continue
			}
			for _, s := range append([]netlist.PinRef(nil), d.Nets[zn].Sinks...) {
				removeSink(&d.Nets[zn], s)
				d.Instances[s.Inst].Pins.Set(s.Pin, an)
				d.Nets[an].Sinks = append(d.Nets[an].Sinks, s)
			}
			if err := d.RemoveInstance(i); err != nil {
				return err
			}
			return d.RemoveNet(zn)
		}
		return fmt.Errorf("corrupt dropinv: no droppable inverter found")
	}
	return fmt.Errorf("unknown corruption %q (want multidrive, loop, float, swapgate, dropinv)", kind)
}

// outputPin returns an instance's first template output pin and its net.
func outputPin(d *netlist.Design, i int) (string, int, bool) {
	def, ok := cellgen.Template(d.Instances[i].Func)
	if !ok {
		return "", 0, false
	}
	for _, out := range def.Outputs {
		if net, ok := d.Instances[i].Pins.Net(out); ok {
			return out, net, true
		}
	}
	return "", 0, false
}

func removeSink(n *netlist.Net, ref netlist.PinRef) {
	for k := range n.Sinks {
		if n.Sinks[k] == ref {
			n.Sinks = append(n.Sinks[:k], n.Sinks[k+1:]...)
			return
		}
	}
}
