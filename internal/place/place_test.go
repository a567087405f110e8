package place

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

func placed(t testing.TB, circuit string, scale float64, mode tech.Mode, util float64) (*Placement, *liberty.Library) {
	t.Helper()
	lib, err := liberty.Default(tech.N45, mode)
	if err != nil {
		t.Fatal(err)
	}
	d, err := circuits.Generate(circuit, scale)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, mode, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(sr.Design, Options{Lib: lib, Tech: tech.New(tech.N45, mode), TargetUtil: util, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return p, lib
}

func TestPlacementLegal(t *testing.T) {
	p, lib := placed(t, "AES", 0.1, tech.Mode2D, 0.8)
	d := p.Design
	// Every cell inside the die.
	for i := range p.X {
		w := lib.MustCell(d.Instances[i].CellName).Width
		if p.X[i]-w/2 < p.Die.Lo.X-1e-6 || p.X[i]+w/2 > p.Die.Hi.X+1e-6 {
			t.Fatalf("instance %d x=%v outside die", i, p.X[i])
		}
		if p.Y[i] < p.Die.Lo.Y || p.Y[i] > p.Die.Hi.Y {
			t.Fatalf("instance %d y=%v outside die", i, p.Y[i])
		}
	}
	// Cells snap to row centers.
	for i := range p.Y {
		frac := math.Mod(p.Y[i]-p.Die.Lo.Y, p.RowH)
		if math.Abs(frac-p.RowH/2) > 1e-6 {
			t.Fatalf("instance %d not on a row center (y=%v)", i, p.Y[i])
		}
	}
}

func TestNoOverlapsWithinRows(t *testing.T) {
	p, lib := placed(t, "FPU", 0.08, tech.Mode2D, 0.8)
	d := p.Design
	type span struct{ lo, hi float64 }
	rows := map[int][]span{}
	for i := range p.X {
		w := lib.MustCell(d.Instances[i].CellName).Width
		r := int((p.Y[i] - p.Die.Lo.Y) / p.RowH)
		rows[r] = append(rows[r], span{p.X[i] - w/2, p.X[i] + w/2})
	}
	overlaps := 0
	for _, spans := range rows {
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				lo := math.Max(spans[i].lo, spans[j].lo)
				hi := math.Min(spans[i].hi, spans[j].hi)
				if hi-lo > 0.01 {
					overlaps++
				}
			}
		}
	}
	// The greedy legalizer tolerates a tiny number of fallback placements.
	if overlaps > len(p.X)/100 {
		t.Errorf("%d overlapping cell pairs (of %d cells)", overlaps, len(p.X))
	}
}

func TestUtilizationTarget(t *testing.T) {
	for _, util := range []float64{0.33, 0.8} {
		p, _ := placed(t, "LDPC", 0.05, tech.Mode2D, util)
		if math.Abs(p.Util-util) > 0.08 {
			t.Errorf("target util %.2f, placed %.3f", util, p.Util)
		}
	}
}

// T-MI placement of the same netlist must produce ≈40% smaller footprint —
// the geometric root of every Table 4 result.
func TestTMIFootprintShrink(t *testing.T) {
	p2, _ := placed(t, "AES", 0.1, tech.Mode2D, 0.8)
	p3, _ := placed(t, "AES", 0.1, tech.ModeTMI, 0.8)
	ratio := p3.Die.Area() / p2.Die.Area()
	if ratio < 0.5 || ratio > 0.7 {
		t.Errorf("T-MI/2D footprint ratio = %.3f, want ≈0.6", ratio)
	}
}

// Placement must do much better than random: compare HPWL against a
// round-robin scatter of the same cells.
func TestPlacementBeatsScatter(t *testing.T) {
	p, _ := placed(t, "DES", 0.08, tech.Mode2D, 0.8)
	good := p.HPWL()
	// Scatter: place instances round-robin across the die.
	saveX := append([]float64{}, p.X...)
	saveY := append([]float64{}, p.Y...)
	n := len(p.X)
	cols := int(math.Sqrt(float64(n))) + 1
	for i := 0; i < n; i++ {
		// Pseudo-random but deterministic shuffle position.
		k := (i*2654435761 + 17) % n
		p.X[i] = p.Die.Lo.X + (float64(k%cols)+0.5)*p.Die.W()/float64(cols)
		p.Y[i] = p.Die.Lo.Y + (float64(k/cols)+0.5)*p.Die.H()/float64(cols+1)
	}
	scatter := p.HPWL()
	copy(p.X, saveX)
	copy(p.Y, saveY)
	if good > scatter*0.6 {
		t.Errorf("placement HPWL %.0f not much better than scatter %.0f", good, scatter)
	}
}

func TestPortsOnBoundary(t *testing.T) {
	p, _ := placed(t, "FPU", 0.05, tech.Mode2D, 0.8)
	for name, pt := range p.Ports {
		onEdge := pt.X == p.Die.Lo.X || pt.X == p.Die.Hi.X ||
			pt.Y == p.Die.Lo.Y || pt.Y == p.Die.Hi.Y
		if !onEdge {
			t.Fatalf("port %s at %v not on the die boundary", name, pt)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := placed(t, "AES", 0.05, tech.Mode2D, 0.8)
	b, _ := placed(t, "AES", 0.05, tech.Mode2D, 0.8)
	if a.HPWL() != b.HPWL() {
		t.Error("placement not deterministic")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Error("missing lib/tech should error")
	}
}

func TestDEFRoundTrip(t *testing.T) {
	p, _ := placed(t, "FPU", 0.05, tech.Mode2D, 0.8)
	var buf bytes.Buffer
	if err := p.WriteDEF(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"DIEAREA", "COMPONENTS", "END COMPONENTS", "PINS"} {
		if !strings.Contains(text, want) {
			t.Fatalf("DEF missing %q", want)
		}
	}
	// Perturb locations, then restore from the DEF.
	saved := append([]float64{}, p.X...)
	for i := range p.X {
		p.X[i] = 0
	}
	if err := p.ReadDEFLocations(&buf); err != nil {
		t.Fatal(err)
	}
	for i := range p.X {
		if math.Abs(p.X[i]-saved[i]) > 0.002 { // DEF dbu rounding
			t.Fatalf("instance %d x=%v, want %v", i, p.X[i], saved[i])
		}
	}
}
