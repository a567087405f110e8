package place

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// WriteDEF emits the placement in a DEF-like format (DIEAREA, COMPONENTS
// with PLACED locations, PINS), the interchange a downstream router or
// analysis tool consumes. Coordinates use DEF's customary database units of
// 1000 per micron, written exactly (formatDBU), so ReadDEF gets back the
// same placement bit for bit.
func (p *Placement) WriteDEF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	d := p.Design
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS 1000 ;\n", d.Name)
	fmt.Fprintf(bw, "DIEAREA ( %s %s ) ( %s %s ) ;\n",
		formatDBU(p.Die.Lo.X), formatDBU(p.Die.Lo.Y), formatDBU(p.Die.Hi.X), formatDBU(p.Die.Hi.Y))

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Instances))
	for i := range d.Instances {
		inst := &d.Instances[i]
		cell := inst.CellName
		if cell == "" {
			cell = inst.Func
		}
		fmt.Fprintf(bw, "- %s %s + PLACED ( %s %s ) N ;\n",
			inst.Name, cell, formatDBU(p.X[i]), formatDBU(p.Y[i]))
	}
	bw.WriteString("END COMPONENTS\n")

	names := make([]string, 0, len(p.Ports))
	for n := range p.Ports {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(bw, "PINS %d ;\n", len(names))
	for _, n := range names {
		pt := p.Ports[n]
		fmt.Fprintf(bw, "- %s + PLACED ( %s %s ) N ;\n", n, formatDBU(pt.X), formatDBU(pt.Y))
	}
	bw.WriteString("END PINS\nEND DESIGN\n")
	return bw.Flush()
}

// formatDBU writes a micron coordinate in database units as the exact
// decimal shift of its shortest round-trip form: 1.14 µm is "1140",
// 12.3456 µm is "12345.6" and 0.0005 µm is "0.5". On-grid coordinates stay
// DEF's customary integers; parseDBU reads any of them back bit for bit.
func formatDBU(um float64) string {
	s := strconv.FormatFloat(um, 'f', -1, 64)
	sign := ""
	if s[0] == '-' {
		sign, s = "-", s[1:]
	}
	whole, frac, _ := strings.Cut(s, ".")
	frac += "000"
	whole = strings.TrimLeft(whole+frac[:3], "0")
	if whole == "" {
		whole = "0"
	}
	if frac = strings.TrimRight(frac[3:], "0"); frac != "" {
		whole += "." + frac
	}
	return sign + whole
}

// parseDBU reads a formatDBU coordinate back in microns. ParseFloat rounds
// the exact decimal once, so the shift by "e-3" loses nothing.
func parseDBU(s string) (float64, error) {
	return strconv.ParseFloat(s+"e-3", 64)
}

// The lines ReadDEF reads, token by token: "*" is a name and "#" a
// coordinate.
var (
	dieLine       = strings.Fields("DIEAREA ( # # ) ( # # ) ;")
	componentLine = strings.Fields("- * * + PLACED ( # # ) N ;")
	pinLine       = strings.Fields("- * + PLACED ( # # ) N ;")
)

// ReadDEF builds the placement of d from a DEF written by WriteDEF: the
// die, every component's location and every port's, each bit for bit. A
// component d lacks, an instance the DEF does not place, a pin that is no
// port of d and a malformed line are errors. The row grid and utilization
// are the placer's bookkeeping, which the DEF does not carry; they stay zero.
func ReadDEF(r io.Reader, d *netlist.Design) (*Placement, error) {
	n := len(d.Instances)
	byName := make(map[string]int, n)
	for i := range d.Instances {
		byName[d.Instances[i].Name] = i
	}
	p := &Placement{
		Design: d,
		X:      make([]float64, n),
		Y:      make([]float64, n),
		Ports:  make(map[string]geom.Point),
	}
	placed := make([]bool, n)
	haveDie, section := false, ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		var xy [4]float64
		ok := true
		switch {
		case len(f) == 0:
		case f[0] == "UNITS":
			ok = line == "UNITS DISTANCE MICRONS 1000 ;"
		case f[0] == "DIEAREA":
			if xy, ok = match(f, dieLine); ok {
				p.Die = geom.Rect{Lo: geom.Point{X: xy[0], Y: xy[1]}, Hi: geom.Point{X: xy[2], Y: xy[3]}}
				haveDie = true
			}
		case f[0] == "COMPONENTS" || f[0] == "PINS":
			section = f[0]
		case f[0] == "END":
			section = ""
		case f[0] == "-" && section == "COMPONENTS":
			if xy, ok = match(f, componentLine); ok {
				i, known := byName[f[1]]
				if !known || placed[i] {
					return nil, fmt.Errorf("place: DEF line %d: component %s is not in design %s or placed twice", ln, f[1], d.Name)
				}
				p.X[i], p.Y[i], placed[i] = xy[0], xy[1], true
			}
		case f[0] == "-" && section == "PINS":
			if xy, ok = match(f, pinLine); ok {
				_, pi := d.PIs[f[1]]
				_, po := d.POs[f[1]]
				if !pi && !po {
					return nil, fmt.Errorf("place: DEF line %d: pin %s is no port of design %s", ln, f[1], d.Name)
				}
				p.Ports[f[1]] = geom.Point{X: xy[0], Y: xy[1]}
			}
		case f[0] == "-":
			ok = false
		}
		if !ok {
			return nil, fmt.Errorf("place: DEF line %d: malformed %q", ln, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveDie {
		return nil, fmt.Errorf("place: DEF has no DIEAREA")
	}
	for i, ok := range placed {
		if !ok {
			return nil, fmt.Errorf("place: DEF does not place instance %s", d.Instances[i].Name)
		}
	}
	return p, nil
}

// match reads the tokens of a line against a pattern of dieLine's form and
// returns its coordinates in order.
func match(f, pattern []string) (xy [4]float64, ok bool) {
	if len(f) != len(pattern) {
		return xy, false
	}
	k := 0
	for i, tok := range pattern {
		switch tok {
		case "*":
		case "#":
			v, err := parseDBU(f[i])
			if err != nil {
				return xy, false
			}
			xy[k], k = v, k+1
		default:
			if f[i] != tok {
				return xy, false
			}
		}
	}
	return xy, true
}
