package liberty

import (
	"math"
	"testing"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/extract"
	"tmi3d/internal/tech"
)

// Live characterization of a single cell — the full-library path runs in
// cmd/charlib; this keeps the SPICE-to-NLDM pipeline covered in-tree.
func TestCharacterizeCellLive(t *testing.T) {
	def, _ := cellgen.Template("NAND2")
	cell, err := characterizeCell(&def, tech.Mode2D, env45())
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Arcs) != 2 {
		t.Fatalf("NAND2 should have 2 arcs, got %d", len(cell.Arcs))
	}
	a := cell.Arc("A", "Z")
	if a == nil {
		t.Fatal("missing A→Z arc")
	}
	// Delay grows with load and with slew; energy stays positive.
	if a.Delay.At(7.5, 0.8) >= a.Delay.At(7.5, 12.8) {
		t.Error("delay must grow with load")
	}
	if a.Delay.At(7.5, 3.2) >= a.Delay.At(150, 3.2) {
		t.Error("delay must grow with input slew")
	}
	if e := a.Energy.At(37.5, 3.2); e <= 0 || e > 20 {
		t.Errorf("energy = %v fJ", e)
	}
	if cell.PinCap["A"] <= 0 || cell.PinCap["B"] <= 0 {
		t.Error("missing pin caps")
	}
	// The embedded artifact must match a fresh characterization (the JSON is
	// a cache, not a fork).
	lib := MustDefault(tech.N45, tech.Mode2D)
	stored := lib.MustCell("NAND2_X1").Arc("A", "Z")
	live := a.Delay.At(37.5, 3.2)
	cached := stored.Delay.At(37.5, 3.2)
	if math.Abs(live-cached)/cached > 0.02 {
		t.Errorf("embedded artifact stale: live %.2f vs cached %.2f ps "+
			"(run go run ./cmd/charlib)", live, cached)
	}
}

func TestCharacterizeTMICellLive(t *testing.T) {
	def, _ := cellgen.Template("INV")
	cell, err := characterizeCell(&def, tech.ModeTMI, env45())
	if err != nil {
		t.Fatal(err)
	}
	if cell.NumMIV == 0 {
		t.Error("folded INV should report MIVs")
	}
	if cell.Area >= 0.38*1.4 {
		t.Error("folded cell should be smaller than 2D")
	}
}

func TestSetupHoldCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection SPICE runs")
	}
	def, _ := cellgen.Template("DFF")
	lay := cellgen.Generate2D(&def)
	ex := extract.Extract(&def, lay, extract.Dielectric)
	setup, hold, err := characterizeSetupHold(&def, ex, env45())
	if err != nil {
		t.Fatal(err)
	}
	if setup < 0.5 || setup > 200 {
		t.Errorf("setup = %v ps, want small positive", setup)
	}
	if hold < 0.5 || hold > 200 {
		t.Errorf("hold = %v ps", hold)
	}
}

func TestSimStepBounds(t *testing.T) {
	if s := simStep(7.5, 1000); s < 0.2 || s > 2 {
		t.Errorf("simStep = %v", s)
	}
	if s := simStep(300, 100000); s != 2.0 {
		t.Errorf("fast cap: %v", s)
	}
	if s := simStep(1, 100); s != 0.2 {
		t.Errorf("slow cap: %v", s)
	}
}

func TestTwoEdgeWaveform(t *testing.T) {
	w := twoEdge{vdd: 1, t0: 10, t1: 100, rise: 20}
	cases := []struct{ t, v float64 }{
		{0, 0}, {10, 0}, {20, 0.5}, {30, 1}, {100, 1}, {110, 0.5}, {200, 0},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.v) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.v)
		}
	}
}
