// Command charlib characterizes the 45nm standard-cell libraries (2D and
// T-MI) with the built-in SPICE engine and writes the resulting NLDM data as
// JSON artifacts into internal/liberty/libdata, where they are embedded into
// later builds. It also prints the cell-level comparison tables of the paper
// (Tables 1, 2 and 11).
//
// Usage:
//
//	charlib [-out internal/liberty/libdata] [-tables]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/extract"
	"tmi3d/internal/liberty"
	"tmi3d/internal/tech"
)

func main() {
	out := flag.String("out", "internal/liberty/libdata", "output directory for library JSON")
	tables := flag.Bool("tables", false, "print Tables 1, 2 and 11")
	flag.Parse()
	log.SetFlags(0)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, mc := range []struct {
		mode tech.Mode
		file string
	}{
		{tech.Mode2D, "lib45_2d.json"},
		{tech.ModeTMI, "lib45_tmi.json"},
	} {
		log.Printf("characterizing 45nm %v library...", mc.mode)
		lib, err := liberty.Characterize45(mc.mode)
		if err != nil {
			log.Fatal(err)
		}
		data, err := lib.EncodeJSON()
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, mc.file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("  wrote %s (%d cells, %d bytes)", path, len(lib.Cells), len(data))
	}

	if *tables {
		printTable1()
		printTable2()
		printTable11()
	}
}

func printTable1() {
	fmt.Println("\nTable 1: cell internal parasitic RC (3D-c = top silicon as conductor)")
	fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s\n", "cell", "R2D(kΩ)", "R3D", "R3D-c", "C2D(fF)", "C3D", "C3D-c")
	for _, base := range []string{"INV", "NAND2", "MUX2", "DFF"} {
		def, _ := cellgen.Template(base)
		l2 := cellgen.Generate2D(&def)
		l3 := cellgen.GenerateTMI(&def)
		e2 := extract.Extract(&def, l2, extract.Dielectric)
		e3 := extract.Extract(&def, l3, extract.Dielectric)
		e3c := extract.Extract(&def, l3, extract.Conductor)
		fmt.Printf("%-8s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			base, e2.TotalR, e3.TotalR, e3c.TotalR, e2.TotalC, e3.TotalC, e3c.TotalC)
	}
}

func printTable2() {
	fmt.Println("\nTable 2: cell delay and internal energy, 2D vs T-MI (3D)")
	lib2 := liberty.MustDefault(tech.N45, tech.Mode2D)
	lib3 := liberty.MustDefault(tech.N45, tech.ModeTMI)
	cases := []struct {
		name       string
		slew, load float64
		slewDFF    float64
	}{
		{"fast", 7.5, 0.8, 5},
		{"medium", 37.5, 3.2, 28.1},
		{"slow", 150, 12.8, 112.5},
	}
	for _, cs := range cases {
		fmt.Printf("%s case: input slew=%gps (%gps for DFF), load=%gfF\n", cs.name, cs.slew, cs.slewDFF, cs.load)
		fmt.Printf("  %-8s %12s %12s %8s %12s %12s %8s\n", "cell", "d2D(ps)", "d3D(ps)", "ratio", "e2D(fJ)", "e3D(fJ)", "ratio")
		for _, base := range []string{"INV", "NAND2", "MUX2", "DFF"} {
			c2 := lib2.MustCell(base + "_X1")
			c3 := lib3.MustCell(base + "_X1")
			slew := cs.slew
			if c2.Seq {
				slew = cs.slewDFF
			}
			a2 := c2.WorstArc(c2.Outputs[0])
			a3 := c3.WorstArc(c3.Outputs[0])
			d2 := a2.Delay.At(slew, cs.load)
			d3 := a3.Delay.At(slew, cs.load)
			e2 := a2.Energy.At(slew, cs.load)
			e3 := a3.Energy.At(slew, cs.load)
			fmt.Printf("  %-8s %12.1f %12.1f %7.1f%% %12.3f %12.3f %7.1f%%\n",
				base, d2, d3, 100*d3/d2, e2, e3, 100*e3/e2)
		}
	}
}

func printTable11() {
	fmt.Println("\nTable 11: 7nm cell characterization (input slew 19ps, load 3.2fF)")
	rows, factors, err := liberty.Characterize7Reference()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s %12s %12s\n",
		"cell", "cin45(fF)", "cin7", "d45(ps)", "d7", "slew45", "slew7", "power45(fJ)", "power7")
	for _, r := range rows {
		fmt.Printf("%-8s %10.3f %10.3f %10.2f %10.2f %10.2f %10.2f %12.3f %12.3f\n",
			r.Cell, r.InputCap45, r.InputCap7, r.Delay45, r.Delay7,
			r.OutSlew45, r.OutSlew7, r.CellPower45, r.CellPower7)
	}
	fmt.Printf("measured scaling factors: cap=%.3f delay=%.3f slew=%.3f energy=%.3f leakage=%.3f\n",
		factors.InputCap, factors.Delay, factors.OutSlew, factors.Energy, factors.Leakage)
	fmt.Printf("paper scaling factors:    cap=%.3f delay=%.3f slew=%.3f energy=%.3f leakage=%.3f\n",
		liberty.PaperScale7.InputCap, liberty.PaperScale7.Delay, liberty.PaperScale7.OutSlew,
		liberty.PaperScale7.Energy, liberty.PaperScale7.Leakage)
}
