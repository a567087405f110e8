package cellgen

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tmi3d/internal/device"
	"tmi3d/internal/geom"
)

func TestLibrarySize(t *testing.T) {
	lib := Library()
	if len(lib) != 66 {
		t.Errorf("library has %d cells, want 66 (Section S1)", len(lib))
	}
	seen := map[string]bool{}
	for _, c := range lib {
		if seen[c.Name] {
			t.Errorf("duplicate cell %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestTransistorCounts(t *testing.T) {
	want := map[string]int{
		"INV": 2, "BUF": 4, "NAND2": 4, "NAND3": 6, "NAND4": 8,
		"NOR2": 4, "NOR3": 6, "NOR4": 8, "AND2": 6, "OR2": 6,
		"XOR2": 12, "XNOR2": 12, "MUX2": 10,
		"AOI21": 6, "AOI22": 8, "OAI21": 6, "OAI22": 8,
		"FA": 28, "DFF": 22,
	}
	for base, n := range want {
		d, ok := Template(base)
		if !ok {
			t.Fatalf("missing template %s", base)
		}
		if got := len(d.Transistors); got != n {
			t.Errorf("%s: %d transistors, want %d", base, got, n)
		}
	}
}

// Every combinational cell's Logic must be consistent with its CMOS network
// evaluated as a switch-level circuit.
func TestLogicMatchesSwitchLevel(t *testing.T) {
	for _, base := range Functions() {
		d, _ := Template(base)
		if d.Seq {
			continue
		}
		n := len(d.Inputs)
		for v := 0; v < 1<<n; v++ {
			in := make([]bool, n)
			assign := map[string]bool{NetVDD: true, NetVSS: false}
			for i := range in {
				in[i] = v>>i&1 == 1
				assign[d.Inputs[i]] = in[i]
			}
			want := d.Logic(in)
			got, ok := switchEval(&d, assign, d.Outputs)
			if !ok {
				t.Errorf("%s: switch-level evaluation failed for input %b", base, v)
				continue
			}
			for i, o := range d.Outputs {
				if got[o] != want[i] {
					t.Errorf("%s(%0*b): output %s = %v, Logic says %v", base, n, v, o, got[o], want[i])
				}
			}
		}
	}
}

// switchEval evaluates a CMOS transistor network by fixed-point conduction
// propagation from the rails. Returns false if any queried net is floating
// or shorted.
func switchEval(d *CellDef, assign map[string]bool, outs []string) (map[string]bool, bool) {
	// Iteratively resolve nets through conducting transistors. Gate values
	// may depend on internal nets (e.g. input inverters inside XOR cells), so
	// loop until stable.
	val := map[string]bool{}
	has := map[string]bool{}
	for k, v := range assign {
		val[k], has[k] = v, true
	}
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, tr := range d.Transistors {
			gv, gok := val[tr.Gate]
			if !gok || !has[tr.Gate] {
				continue
			}
			on := (tr.Kind == device.NMOS && gv) || (tr.Kind == device.PMOS && !gv)
			if !on {
				continue
			}
			dv, dok := val[tr.Drain], has[tr.Drain]
			sv, sok := val[tr.Source], has[tr.Source]
			switch {
			case dok && !sok:
				val[tr.Source], has[tr.Source] = dv, true
				changed = true
			case sok && !dok:
				val[tr.Drain], has[tr.Drain] = sv, true
				changed = true
			case dok && sok && dv != sv:
				return nil, false // short through a conducting device
			}
		}
		if !changed {
			break
		}
	}
	out := map[string]bool{}
	for _, o := range outs {
		v, ok := val[o]
		if !ok || !has[o] {
			return nil, false
		}
		out[o] = v
	}
	return out, true
}

func TestStrengthScaling(t *testing.T) {
	x1, _ := Template("NAND2")
	lib := Library()
	var x4 *CellDef
	for i := range lib {
		if lib[i].Name == "NAND2_X4" {
			x4 = &lib[i]
		}
	}
	if x4 == nil {
		t.Fatal("NAND2_X4 missing")
	}
	for i := range x1.Transistors {
		if math.Abs(x4.Transistors[i].W-4*x1.Transistors[i].W) > 1e-12 {
			t.Errorf("X4 width %v != 4× X1 width %v", x4.Transistors[i].W, x1.Transistors[i].W)
		}
	}
}

func TestLayout2DBasics(t *testing.T) {
	inv, _ := Template("INV")
	l := Generate2D(&inv)
	if l.Height != 1.4 {
		t.Errorf("2D cell height = %v, want 1.4", l.Height)
	}
	// Nangate INV_X1 footprint: 0.38 × 1.4 µm.
	if math.Abs(l.Width-0.38) > 1e-9 {
		t.Errorf("INV_X1 width = %v, want 0.38", l.Width)
	}
	if l.NumMIV != 0 {
		t.Error("2D layout must not contain MIVs")
	}
	// All shapes inside the cell bounding box.
	for _, s := range l.Shapes {
		if s.R.Lo.X < -1e-9 || s.R.Hi.X > l.Width+1e-9 || s.R.Lo.Y < -1e-9 || s.R.Hi.Y > l.Height+1e-9 {
			t.Errorf("shape %v outside cell box", s)
		}
	}
	// Both ports must have terminals/shapes.
	for _, net := range []string{"A", "Z"} {
		found := false
		for _, s := range l.Shapes {
			if s.Net == net {
				found = true
			}
		}
		if !found {
			t.Errorf("no shapes on port net %s", net)
		}
	}
}

func TestFoldShrinks40Percent(t *testing.T) {
	for _, base := range []string{"INV", "NAND2", "MUX2", "DFF"} {
		d, _ := Template(base)
		l2 := Generate2D(&d)
		l3 := GenerateTMI(&d)
		if l3.Height != 0.84 {
			t.Errorf("%s: T-MI height = %v, want 0.84", base, l3.Height)
		}
		if math.Abs(l3.Width-l2.Width) > 1e-9 {
			t.Errorf("%s: folding should preserve cell width (%v vs %v)", base, l3.Width, l2.Width)
		}
		red := 1 - l3.Area()/l2.Area()
		if math.Abs(red-0.40) > 1e-6 {
			t.Errorf("%s: footprint reduction = %.1f%%, want 40%%", base, red*100)
		}
	}
}

func TestFoldMIVs(t *testing.T) {
	inv, _ := Template("INV")
	l := GenerateTMI(&inv)
	// INV: nets A (gate-gate) and Z (drain-drain) span tiers → 2 MIVs,
	// Z via a direct S/D contact.
	if l.NumMIV != 2 {
		t.Errorf("INV T-MI has %d MIVs, want 2", l.NumMIV)
	}
	if l.DirectSD != 1 {
		t.Errorf("INV T-MI has %d direct S/D contacts, want 1 (net Z)", l.DirectSD)
	}
	dff, _ := Template("DFF")
	ld := GenerateTMI(&dff)
	if ld.NumMIV < 8 {
		t.Errorf("DFF T-MI has %d MIVs, want many (complex internal connections)", ld.NumMIV)
	}
	// Bottom-tier layers only appear in T-MI layouts.
	l2 := Generate2D(&inv)
	for _, s := range l2.Shapes {
		if isBottomLayer(s.Layer) || s.Layer == LayerMIV {
			t.Errorf("2D layout contains 3D layer %s", s.Layer)
		}
	}
	foundBottom := false
	for _, s := range l.Shapes {
		if isBottomLayer(s.Layer) {
			foundBottom = true
		}
	}
	if !foundBottom {
		t.Error("T-MI layout has no bottom-tier shapes")
	}
}

// The overlapping VDD/VSS rails of the folded cell (Fig 2b).
func TestFoldRailOverlap(t *testing.T) {
	inv, _ := Template("INV")
	l := GenerateTMI(&inv)
	var vdd, vss *geom.Shape
	for i := range l.Shapes {
		s := &l.Shapes[i]
		if s.Net == NetVDD && s.Layer == LayerMB1 && s.R.W() > 0.3 {
			vdd = s
		}
		if s.Net == NetVSS && s.Layer == LayerM1 && s.R.W() > 0.3 {
			vss = s
		}
	}
	if vdd == nil || vss == nil {
		t.Fatal("missing supply rails in T-MI layout")
	}
	if ov, ok := vdd.R.Intersection(vss.R); !ok || ov.Area() < 0.01 {
		t.Error("VDD and VSS strips should overlap in plan view")
	}
}

func TestInternalNets(t *testing.T) {
	dff, _ := Template("DFF")
	nets := dff.InternalNets()
	if len(nets) < 7 {
		t.Errorf("DFF internal nets = %d, want ≥7 (ckb, cki, m1, m2, mf, s1, s2, sf)", len(nets))
	}
	inv, _ := Template("INV")
	if n := inv.InternalNets(); len(n) != 0 {
		t.Errorf("INV should have no internal nets, got %v", n)
	}
	if got := len(inv.AllNets()); got != 4 { // VDD, VSS, A, Z
		t.Errorf("INV AllNets = %d, want 4", got)
	}
}

func TestTemplateUnknown(t *testing.T) {
	if _, ok := Template("FOO99"); ok {
		t.Error("unknown template should report !ok")
	}
}

func TestWriteLEF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLEF(&buf, true); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"MACRO INV_X1", "MACRO DFF_X4", "SIZE 0.380 BY 0.840",
		"LAYER M0B", "LAYER MIV", "END LIBRARY",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("T-MI LEF missing %q", want)
		}
	}
	// Every library cell gets a macro.
	if n := strings.Count(text, "MACRO "); n != 66 {
		t.Errorf("%d macros, want 66", n)
	}
	// The 2D abstract has no bottom-tier or MIV layers.
	buf.Reset()
	if err := WriteLEF(&buf, false); err != nil {
		t.Fatal(err)
	}
	text = buf.String()
	if strings.Contains(text, "M0B") || strings.Contains(text, "LAYER MIV") {
		t.Error("2D LEF leaked 3D layers")
	}
	if !strings.Contains(text, "SIZE 0.380 BY 1.400") {
		t.Error("2D INV_X1 size wrong")
	}
}
