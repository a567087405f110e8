// The equiv subcommand runs the formal equivalence checker standalone: it
// synthesizes a benchmark and proves the mapped netlist equivalent to the
// generated source (the Conformal/Formality sign-off of the paper's Fig 1
// flow), optionally after injecting a logic-corrupting defect to demonstrate
// detection, plus a switch-level verification of the folded T-MI library.
//
// Usage:
//
//	tmi3d equiv -circuit AES -node 45              # JSON report, exit 0 if proven
//	tmi3d equiv -all -format text                  # every benchmark + library
//	tmi3d equiv -circuit DES -corrupt swapgate     # exit 1 with counterexample
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
	"tmi3d/internal/tech"
)

// equivOutput is the JSON shape of one `tmi3d equiv` invocation.
type equivOutput struct {
	Designs []*equiv.Report  `json:"designs"`
	Library *equiv.LibReport `json:"library,omitempty"`
}

func equivMain(args []string) {
	fs := flag.NewFlagSet("equiv", flag.ExitOnError)
	circuit := fs.String("circuit", "AES", "benchmark to check: FPU, AES, LDPC, DES, M256")
	nodeF := fs.String("node", "45", "process node: 45 or 7")
	scale := fs.Float64("scale", 0.25, "circuit scale (1.0 = paper size)")
	lib := fs.Bool("lib", false, "also switch-level-verify the folded cell library")
	all := fs.Bool("all", false, "check every benchmark plus the library")
	format := fs.String("format", "json", "report format: json or text")
	corrupt := fs.String("corrupt", "", "comma list of defects to inject into the compared netlist: "+
		"swapgate, dropinv, multidrive, loop, float")
	fs.Parse(args)

	node, err := tech.ParseNode(*nodeF)
	if err != nil {
		log.Fatal(err)
	}

	out := equivOutput{}
	names := []string{*circuit}
	if *all {
		names = circuits.Names
	}
	for _, name := range names {
		rep, err := equivCircuit(name, node, *scale, *corrupt)
		if err != nil {
			log.Fatal(err)
		}
		out.Designs = append(out.Designs, rep)
	}
	if *lib || *all {
		out.Library = equiv.CheckLibrary()
	}

	switch *format {
	case "text":
		for _, rep := range out.Designs {
			rep.WriteText(os.Stdout)
		}
		if out.Library != nil {
			out.Library.WriteText(os.Stdout)
		}
	default:
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
	}

	for _, rep := range out.Designs {
		if !rep.Equivalent() {
			os.Exit(1)
		}
	}
	if out.Library != nil && out.Library.Err() != nil {
		os.Exit(1)
	}
}

// equivCircuit synthesizes one benchmark (synthRelaxed) and checks the
// mapped netlist against the generated source. With corruptions, the
// corrupted post-synthesis netlist is checked against the intact one instead
// — the counterexample then names the injected defect's first diverging net.
func equivCircuit(name string, node tech.Node, scale float64, corrupt string) (*equiv.Report, error) {
	_, src, mapped, err := synthRelaxed(name, node, scale)
	if err != nil {
		return nil, err
	}

	ref, dut := src, mapped
	var injected []string
	for _, kind := range strings.Split(corrupt, ",") {
		if kind = strings.TrimSpace(kind); kind == "" {
			continue
		}
		if injected == nil {
			ref = mapped
			dut = mapped.Clone()
			dut.Name = name + "_corrupt"
		}
		if err := injectDefect(dut, kind); err != nil {
			return nil, err
		}
		injected = append(injected, kind)
	}
	if injected != nil {
		// The corruptions are designed to pass every structural ERC rule —
		// verify that here so equiv is provably the only net catching them.
		if err := dut.Validate(); err != nil {
			return nil, fmt.Errorf("corruption %v broke netlist structure: %w",
				injected, err)
		}
	}

	rep, err := equiv.Check(ref, dut, equiv.Options{})
	if err != nil {
		return nil, err
	}
	rep.Subject = fmt.Sprintf("design %s@%v", name, node)
	if injected != nil {
		rep.Subject += fmt.Sprintf(" (corrupt: %s)", strings.Join(injected, ","))
	}
	return rep, nil
}
