// Command layoutdump renders a benchmark's flow implementation as images:
// cell placement density and routing congestion heat maps — the Fig 3 /
// Fig 8 snapshots of the paper. It runs the flow (flow.Run) and takes the
// route from the flow's sign-off (flow.Analyze). Output is PPM (viewable
// anywhere) plus an ASCII thumbnail on stdout.
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

	"tmi3d/internal/flow"
	"tmi3d/internal/geom"
	"tmi3d/internal/place"
	"tmi3d/internal/route"
	"tmi3d/internal/tech"
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
	pl, a, err := implement(flow.Config{Circuit: *circuit, Scale: *scale, Node: tech.N45, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	rt, lib := a.Route, a.Env.Lib

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
			c := lib.MustCell(pl.Design.Instances[i].CellName)
			density[y*px+x] += c.Area
		}
	}
	writeHeat(*out+"_place.ppm", density, px, py)

	writeHeat(*out+"_congestion.ppm", congestion(pl, rt, px, py), px, py)

	fmt.Println("\nplacement density:")
	ascii(density, px, py)
	log.Printf("wrote %s_place.ppm and %s_congestion.ppm", *out, *out)
}

// implement runs the flow for cfg and its sign-off for the final route.
func implement(cfg flow.Config) (*place.Placement, *flow.Analysis, error) {
	r, err := flow.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	d, pl, err := r.Implementation()
	if err != nil {
		return nil, nil, err
	}
	a, err := flow.Analyze(r.Config, d, pl)
	return pl, a, err
}

// congestion projects routed wirelength onto a w×h grid over the die: each
// net's length is spread evenly over the grid cells of its pins' bounding
// box, so the grid sums to the total routed length.
func congestion(pl *place.Placement, rt *route.Result, w, h int) []float64 {
	grid := make([]float64, w*h)
	cellOf := func(pt geom.Point) (int, int) {
		x := int((pt.X - pl.Die.Lo.X) / pl.Die.W() * float64(w-1))
		y := int((pt.Y - pl.Die.Lo.Y) / pl.Die.H() * float64(h-1))
		return min(max(x, 0), w-1), min(max(y, 0), h-1)
	}
	for ni, nr := range rt.Routes {
		if nr.Len == 0 {
			continue
		}
		net := &pl.Design.Nets[ni]
		x0, y0 := cellOf(pl.PinPoint(net.Driver))
		x1, y1 := x0, y0
		for _, s := range net.Sinks {
			x, y := cellOf(pl.PinPoint(s))
			x0, x1 = min(x0, x), max(x1, x)
			y0, y1 = min(y0, y), max(y1, y)
		}
		share := nr.Len / float64((x1-x0+1)*(y1-y0+1))
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				grid[y*w+x] += share
			}
		}
	}
	return grid
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
