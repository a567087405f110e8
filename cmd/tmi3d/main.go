// Command tmi3d runs the full design flow for one benchmark configuration
// and prints the layout and power report — the quickest way to see one
// iso-performance comparison point.
//
// Usage:
//
//	tmi3d -circuit AES -node 45 -mode tmi -scale 0.5
//	tmi3d -circuit LDPC -compare           # run 2D and T-MI, print the diff
//	tmi3d -stagecache ./cache -clock 900   # staged run: reuse unchanged stages
//	tmi3d stages -stagecache ./cache       # show the per-stage cache plan
//	tmi3d wireid -circuit FPU -scale 0.1   # replay every artifact codec, diff bytes
//	tmi3d lint -circuit AES -node 45       # design-integrity lint report
//	tmi3d equiv -circuit AES -node 45      # formal equivalence sign-off report
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"

	"tmi3d/internal/flow"
	"tmi3d/internal/stage"
	"tmi3d/internal/tech"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		log.SetFlags(0)
		lintMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "equiv" {
		log.SetFlags(0)
		equivMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		log.SetFlags(0)
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stages" {
		log.SetFlags(0)
		stagesMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "wireid" {
		log.SetFlags(0)
		wireidMain(os.Args[2:])
		return
	}
	circuit := flag.String("circuit", "AES", "benchmark: FPU, AES, LDPC, DES, M256")
	nodeF := flag.String("node", "45", "process node: 45 or 7")
	modeF := flag.String("mode", "2d", "design mode: 2d, tmi, tmim")
	scale := flag.Float64("scale", 0.5, "circuit scale (1.0 = paper size)")
	clock := flag.Float64("clock", 0, "target clock in ps (paper-equivalent; 0 = Table 12)")
	compare := flag.Bool("compare", false, "run both 2D and T-MI and print the comparison")
	dump := flag.String("dump", "", "write <prefix>.v and <prefix>.def implementation artifacts")
	byfunc := flag.Bool("byfunc", false, "print the per-function power breakdown table")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max flows run in parallel (-compare runs 2D and T-MI concurrently when >1)")
	stageDir := flag.String("stagecache", "", "staged-flow artifact store directory; reruns reuse unchanged stages (results byte-identical; empty = monolithic flow)")
	flag.Parse()
	log.SetFlags(0)

	if *stageDir != "" {
		eng, err := stage.New(*stageDir)
		if err != nil {
			log.Fatal(err)
		}
		runFlow = eng.Run
	}

	node, mode := nodeMode(*nodeF, *modeF)

	if *compare {
		cfg2 := flow.Config{Circuit: *circuit, Scale: *scale, Node: node, Mode: tech.Mode2D, ClockPs: *clock}
		cfg3 := flow.Config{Circuit: *circuit, Scale: *scale, Node: node, Mode: tech.ModeTMI, ClockPs: *clock}
		var r2, r3 *flow.Result
		if *jobs > 1 {
			// Each flow's RNG derives from its config, so the concurrent
			// runs produce exactly what the serial runs would.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); r2 = run(cfg2) }()
			r3 = run(cfg3)
			wg.Wait()
		} else {
			r2 = run(cfg2)
			r3 = run(cfg3)
		}
		print1(r2)
		if *byfunc {
			printByFunc(r2)
		}
		print1(r3)
		if *byfunc {
			printByFunc(r3)
		}
		d := flow.Diff(r2, r3)
		fmt.Printf("\nT-MI vs 2D: footprint %+.1f%%  wirelength %+.1f%%  total power %+.1f%%"+
			" (cell %+.1f%%, net %+.1f%%, leakage %+.1f%%)  buffers %+.1f%%\n",
			d.Footprint, d.WL, d.Total, d.Cell, d.Net, d.Leakage, d.Buffers)
		return
	}
	r := run(flow.Config{Circuit: *circuit, Scale: *scale, Node: node, Mode: mode, ClockPs: *clock})
	print1(r)
	if *byfunc {
		printByFunc(r)
	}
	if *dump != "" {
		writeArtifacts(r, *dump)
	}
}

// printByFunc prints the deterministic per-function power table.
func printByFunc(r *flow.Result) {
	fmt.Printf("\n  power by cell function:\n")
	for _, line := range strings.Split(strings.TrimRight(r.Power.FunctionTable(), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
}

// writeArtifacts emits the final netlist and placement.
func writeArtifacts(r *flow.Result, prefix string) {
	vf, err := os.Create(prefix + ".v")
	if err != nil {
		log.Fatal(err)
	}
	defer vf.Close()
	if err := r.Design.WriteVerilog(vf); err != nil {
		log.Fatal(err)
	}
	df, err := os.Create(prefix + ".def")
	if err != nil {
		log.Fatal(err)
	}
	defer df.Close()
	if err := r.Placement.WriteDEF(df); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s.v and %s.def", prefix, prefix)
}

// nodeMode parses the -node and -mode flags, exiting non-zero with the
// accepted spellings on a typo.
func nodeMode(node, mode string) (tech.Node, tech.Mode) {
	n, err := tech.ParseNode(node)
	if err != nil {
		log.Fatal(err)
	}
	m, err := tech.ParseMode(mode)
	if err != nil {
		log.Fatal(err)
	}
	return n, m
}

// runFlow executes one flow; -stagecache swaps in a staged engine.
var runFlow = flow.Run

func run(cfg flow.Config) *flow.Result {
	r, err := runFlow(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func print1(r *flow.Result) {
	met := "MET"
	if r.WNS < 0 {
		met = "VIOLATED"
	}
	fmt.Printf("\n%s %v %v @ %.0f ps (calibrated)\n", r.Config.Circuit, r.Config.Node, r.Config.Mode, r.ClockPs)
	fmt.Printf("  footprint : %.0f µm² (%.1f × %.1f µm), utilization %.1f%%\n", r.Footprint, r.DieW, r.DieH, r.Util*100)
	fmt.Printf("  cells     : %d (%d buffers), cell area %.0f µm²\n", r.NumCells, r.NumBuffers, r.CellArea)
	fmt.Printf("  wirelength: %.4f m (local %.0f / intermediate %.0f / global %.0f µm)\n",
		r.TotalWL/1e6, r.WLByClass[tech.ClassM1]+r.WLByClass[tech.ClassLocal],
		r.WLByClass[tech.ClassIntermediate], r.WLByClass[tech.ClassGlobal])
	fmt.Printf("  timing    : WNS %+.0f ps (%s)\n", r.WNS, met)
	fmt.Printf("  power     : %.3f mW total = cell %.3f + net %.3f (wire %.3f + pin %.3f) + leakage %.3f\n",
		r.Power.Total, r.Power.Cell, r.Power.Net, r.Power.Wire, r.Power.Pin, r.Power.Leakage)
}
