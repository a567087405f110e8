package main

import (
	"flag"
	"fmt"
	"log"

	"tmi3d/internal/flow"
	"tmi3d/internal/stage"
)

// stagesMain prints the staged-flow cache plan for one configuration:
// `tmi3d stages -stagecache ./cache -circuit AES -mode tmi -clock 900`.
// For each DAG node it shows the tier the artifact would be served from right
// now (mem, disk, or a recompute), the artifact ID, and the config key fields
// that feed the ID — what a sweep point will reuse before paying for it.
func stagesMain(args []string) {
	fs := flag.NewFlagSet("stages", flag.ExitOnError)
	circuit := fs.String("circuit", "AES", "benchmark: FPU, AES, LDPC, DES, M256")
	nodeF := fs.String("node", "45", "process node: 45 or 7")
	modeF := fs.String("mode", "2d", "design mode: 2d, tmi, tmim")
	scale := fs.Float64("scale", 0.5, "circuit scale (1.0 = paper size)")
	clock := fs.Float64("clock", 0, "target clock in ps (0 = Table 12)")
	stageDir := fs.String("stagecache", "tmi3d-stagecache", "staged-flow artifact store directory")
	fs.Parse(args)

	node, mode := nodeMode(*nodeF, *modeF)
	eng, err := stage.New(*stageDir)
	if err != nil {
		log.Fatal(err)
	}
	cfg := flow.Config{Circuit: *circuit, Scale: *scale, Node: node, Mode: mode, ClockPs: *clock}
	fmt.Printf("%-8s  %-7s  %-16s  %s\n", "stage", "tier", "artifact", "key")
	for _, pe := range eng.Plan(cfg) {
		tier, id := pe.Tier, pe.ID[:16]
		if !pe.Cached {
			tier, id = "-", "(uncached)"
		} else if tier == "" {
			tier = "compute"
		}
		key := pe.Key
		if key == "" {
			key = "(inherited from deps)"
		}
		fmt.Printf("%-8s  %-7s  %-16s  %s\n", pe.Name, tier, id, key)
	}
}
