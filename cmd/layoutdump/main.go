// Command layoutdump renders a placed-and-routed benchmark as images: cell
// placement density and routing congestion heat maps — the Fig 3 / Fig 8
// snapshots of the paper. Output is PPM (viewable anywhere) plus an ASCII
// thumbnail on stdout.
//
// Usage:
//
//	layoutdump -circuit LDPC -mode 2d -scale 0.5 -out ldpc
//	  → ldpc_place.ppm, ldpc_congestion.ppm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/place"
	"tmi3d/internal/route"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

func main() {
	circuit := flag.String("circuit", "LDPC", "benchmark name")
	modeF := flag.String("mode", "2d", "design mode: 2d, tmi, tmim")
	scale := flag.Float64("scale", 0.3, "circuit scale")
	out := flag.String("out", "layout", "output file prefix")
	flag.Parse()
	log.SetFlags(0)

	mode, err := tech.ParseMode(*modeF)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := liberty.Default(tech.N45, mode)
	if err != nil {
		log.Fatal(err)
	}
	d, err := circuits.Generate(*circuit, *scale)
	if err != nil {
		log.Fatal(err)
	}
	tt := tech.New(tech.N45, mode)
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, mode, 30000)})
	if err != nil {
		log.Fatal(err)
	}
	pl, err := place.Run(sr.Design, place.Options{
		Lib: lib, Tech: tt, TargetUtil: circuits.TargetUtilization(*circuit),
	})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := route.Run(pl, route.Options{Tech: tt})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s %v: die %.0f × %.0f µm, WL %.3f m, overflow %d, peak congestion %.2f\n",
		*circuit, mode, pl.Die.W(), pl.Die.H(), rt.TotalLen/1e6, rt.Overflow, rt.MaxCongestion)

	// Placement density grid.
	const px = 192
	py := int(float64(px) * pl.Die.H() / pl.Die.W())
	density := make([]float64, px*py)
	for i := range pl.X {
		x := int(pl.X[i] / pl.Die.W() * float64(px-1))
		y := int(pl.Y[i] / pl.Die.H() * float64(py-1))
		if x >= 0 && x < px && y >= 0 && y < py {
			c := lib.MustCell(sr.Design.Instances[i].CellName)
			density[y*px+x] += c.Area
		}
	}
	writeHeat(*out+"_place.ppm", density, px, py)

	// Congestion from wirelength per gcell, projected onto the same grid.
	cong := make([]float64, px*py)
	for ni, nr := range rt.Routes {
		if nr.Len == 0 {
			continue
		}
		// Smear each net's length over its bounding box.
		hp := pl.NetHPWL(ni)
		_ = hp
		pt := pl.PinPoint(sr.Design.Nets[ni].Driver)
		x := int(pt.X / pl.Die.W() * float64(px-1))
		y := int(pt.Y / pl.Die.H() * float64(py-1))
		if x >= 0 && x < px && y >= 0 && y < py {
			cong[y*px+x] += nr.Len
		}
	}
	writeHeat(*out+"_congestion.ppm", cong, px, py)

	fmt.Println("\nplacement density:")
	ascii(density, px, py)
	log.Printf("wrote %s_place.ppm and %s_congestion.ppm", *out, *out)
}

// writeHeat dumps a scalar field as a colored PPM.
func writeHeat(path string, v []float64, w, h int) {
	max := 0.0
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P3\n%d %d\n255\n", w, h)
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			t := v[y*w+x] / max
			r := int(255 * t)
			g := int(255 * (1 - t) * t * 4 * 0.6)
			bl := int(255 * (1 - t) * 0.7)
			fmt.Fprintf(&b, "%d %d %d ", r, g, bl)
		}
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
}

// ascii prints a coarse thumbnail.
func ascii(v []float64, w, h int) {
	const tw, th = 64, 24
	ramp := " .:-=+*#%@"
	max := 0.0
	cell := make([]float64, tw*th)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cx := x * tw / w
			cy := y * th / h
			cell[cy*tw+cx] += v[y*w+x]
		}
	}
	for _, x := range cell {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		max = 1
	}
	for y := th - 1; y >= 0; y-- {
		row := make([]byte, tw)
		for x := 0; x < tw; x++ {
			k := int(cell[y*tw+x] / max * float64(len(ramp)-1))
			row[x] = ramp[k]
		}
		fmt.Printf("  %s\n", row)
	}
}
