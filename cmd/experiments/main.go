// Command experiments regenerates every table and figure of the paper's
// evaluation and writes the combined report to stdout (and optionally a
// file). The scale flag trades fidelity for wall-clock time: 1.0 builds the
// paper's full-size benchmarks. The -j flag bounds the flow worker pool;
// the report is byte-identical at every -j for the same scale and seed
// (timestamps and timing go to stderr, never into the report).
//
// Usage:
//
//	experiments -scale 0.5 -j 8 -out EXPERIMENTS_DATA.txt
//	experiments -only table4,fig4
//
// An unknown -only id exits 1 and lists the valid ids (core.Experiments).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"tmi3d/internal/core"
)

func main() {
	scale := flag.Float64("scale", 0.5, "circuit scale (1.0 = paper size)")
	out := flag.String("out", "", "also write the report to this file")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. table4,fig4); empty = all")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max flows run in parallel (1 = serial driver)")
	seed := flag.Uint64("seed", 0, "study seed (flow RNG streams derive from seed + config)")
	flag.Parse()
	log.SetFlags(0)
	log.Printf("tmi3d experiments — scale %.2f, -j %d — %s", *scale, *jobs, time.Now().Format(time.RFC1123))

	// Resolve -only before any flow runs: a typoed id is an error listing
	// the valid ones, not an empty report.
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		e, err := core.FindExperiment(id)
		if err != nil {
			log.Fatal(err)
		}
		want[e.ID] = true
	}

	s := core.NewStudy(*scale)
	s.Workers = *jobs
	s.Seed = *seed
	var b strings.Builder
	fmt.Fprintf(&b, "tmi3d experiment report — scale %.2f — seed %d\n\n", *scale, *seed)

	wall := time.Now()
	for _, e := range core.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		text, err := e.Render(s)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		log.Printf("%s done in %v", e.ID, time.Since(t0).Round(time.Millisecond))
		b.WriteString(text)
		b.WriteString("\n")
	}
	// The timing profile goes to stderr: the report itself must stay
	// byte-identical across -j values and across runs.
	log.Printf("all experiments done in %v (%d flows executed)\n%s",
		time.Since(wall).Round(time.Millisecond), s.FlowsRun(), s.StageReport())

	fmt.Print(b.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
}
