package liberty

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"tmi3d/internal/tech"
)

func lib2D(t testing.TB) *Library {
	t.Helper()
	lib, err := Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func lib3D(t testing.TB) *Library {
	t.Helper()
	lib, err := Default(tech.N45, tech.ModeTMI)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLibraryComplete(t *testing.T) {
	lib := lib2D(t)
	if len(lib.Cells) != 66 {
		t.Errorf("library has %d cells, want 66", len(lib.Cells))
	}
	for name, c := range lib.Cells {
		if len(c.Arcs) == 0 {
			t.Errorf("%s: no timing arcs", name)
		}
		if c.Area <= 0 || c.Width <= 0 {
			t.Errorf("%s: bad geometry %v/%v", name, c.Area, c.Width)
		}
		if c.Leakage <= 0 {
			t.Errorf("%s: non-positive leakage", name)
		}
		for _, in := range c.Inputs {
			if c.PinCap[in] <= 0 {
				t.Errorf("%s: pin %s has no capacitance", name, in)
			}
		}
		for _, a := range c.Arcs {
			mid := a.Delay.At(medianOf(a.Delay.Slews), medianOf(a.Delay.Loads))
			if mid <= 0 || mid > 2000 {
				t.Errorf("%s arc %s→%s: implausible delay %v", name, a.From, a.To, mid)
			}
		}
	}
}

// Table 2 anchors: the characterized 2D cells must land near the paper's
// published delay values at the three corners.
func TestTable2DelayAnchors(t *testing.T) {
	lib := lib2D(t)
	rows := []struct {
		cell               string
		fast, med, slow    float64
		sfast, smed, sslow float64 // input slews
	}{
		{"INV_X1", 17.2, 51.1, 188.3, 7.5, 37.5, 150},
		{"NAND2_X1", 21.2, 56.2, 195.9, 7.5, 37.5, 150},
		{"MUX2_X1", 59.8, 97.0, 215.1, 7.5, 37.5, 150},
		{"DFF_X1", 108.8, 142.6, 237.4, 5, 28.1, 112.5},
	}
	loads := []float64{0.8, 3.2, 12.8}
	for _, r := range rows {
		c := lib.MustCell(r.cell)
		a := c.WorstArc(c.Outputs[0])
		for i, want := range []float64{r.fast, r.med, r.slow} {
			slew := []float64{r.sfast, r.smed, r.sslow}[i]
			got := a.Delay.At(slew, loads[i])
			if got < want*0.6 || got > want*1.6 {
				t.Errorf("%s delay@(%g,%g) = %.1f ps, paper %.1f (want within 60%%)",
					r.cell, slew, loads[i], got, want)
			}
		}
	}
}

// Table 2 relationships: T-MI INV/NAND2/MUX2 slightly faster and lower-power
// than 2D; DFF slightly worse; differences shrink from fast to slow corner.
func TestTable2Relationships(t *testing.T) {
	l2, l3 := lib2D(t), lib3D(t)
	ratioAt := func(cell string, slew, load float64) float64 {
		c2, c3 := l2.MustCell(cell), l3.MustCell(cell)
		return c3.WorstArc(c3.Outputs[0]).Delay.At(slew, load) /
			c2.WorstArc(c2.Outputs[0]).Delay.At(slew, load)
	}
	for _, cell := range []string{"INV_X1", "NAND2_X1", "MUX2_X1"} {
		if r := ratioAt(cell, 7.5, 0.8); r >= 1.02 {
			t.Errorf("%s: 3D/2D fast-case delay ratio = %.3f, want ≤ ~1", cell, r)
		}
	}
	if r := ratioAt("DFF_X1", 5, 0.8); r <= 0.98 {
		t.Errorf("DFF: 3D/2D fast-case delay ratio = %.3f, want ≥ ~1 (worse in 3D)", r)
	}
	// Differences shrink toward the slow corner (paper's observation).
	fastGap := math.Abs(1 - ratioAt("INV_X1", 7.5, 0.8))
	slowGap := math.Abs(1 - ratioAt("INV_X1", 150, 12.8))
	if slowGap > fastGap+0.02 {
		t.Errorf("INV 3D/2D gap should shrink from fast (%.3f) to slow (%.3f)", fastGap, slowGap)
	}
}

func TestLUTInterpolation(t *testing.T) {
	l := &LUT{
		Slews: []float64{10, 100},
		Loads: []float64{1, 10},
		V:     [][]float64{{1, 2}, {3, 4}},
	}
	if got := l.At(10, 1); got != 1 {
		t.Errorf("corner = %v", got)
	}
	if got := l.At(100, 10); got != 4 {
		t.Errorf("corner = %v", got)
	}
	if got := l.At(55, 5.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("center = %v, want 2.5", got)
	}
	// Extrapolation continues the edge gradient.
	if got := l.At(190, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("extrapolated = %v, want 5", got)
	}
}

// Property: delay tables are monotone in load for every characterized arc
// (more load, more delay).
func TestDelayMonotoneInLoad(t *testing.T) {
	lib := lib2D(t)
	for name, c := range lib.Cells {
		for _, a := range c.Arcs {
			for i := range a.Delay.Slews {
				for j := 1; j < len(a.Delay.Loads); j++ {
					if a.Delay.V[i][j] < a.Delay.V[i][j-1]*0.98 {
						t.Errorf("%s %s→%s: delay not monotone in load at slew %v: %v -> %v",
							name, a.From, a.To, a.Delay.Slews[i], a.Delay.V[i][j-1], a.Delay.V[i][j])
					}
				}
			}
		}
	}
}

func TestStrengthDerivation(t *testing.T) {
	lib := lib2D(t)
	x1 := lib.MustCell("INV_X1")
	x4 := lib.MustCell("INV_X4")
	a1, a4 := x1.Arc("A", "Z"), x4.Arc("A", "Z")
	// At 4× the load, the X4 matches the X1 at 1× (load scaling).
	d1 := a1.Delay.At(37.5, 3.2)
	d4 := a4.Delay.At(37.5, 12.8)
	if math.Abs(d1-d4)/d1 > 0.02 {
		t.Errorf("X4@4L (%v) should equal X1@L (%v)", d4, d1)
	}
	if x4.PinCap["A"] < x1.PinCap["A"]*3.9 {
		t.Errorf("X4 pin cap %v should be 4× X1 %v", x4.PinCap["A"], x1.PinCap["A"])
	}
	if x4.Area <= x1.Area {
		t.Error("X4 should be physically larger")
	}
	if up := lib.Upsize(x1); up == nil || up.Name != "INV_X2" {
		t.Errorf("Upsize(INV_X1) = %v", up)
	}
	if dn := lib.Downsize(x1); dn != nil {
		t.Errorf("Downsize(INV_X1) = %v, want nil", dn)
	}
	top := lib.MustCell("INV_X32")
	if up := lib.Upsize(top); up != nil {
		t.Error("Upsize of largest should be nil")
	}
}

func TestDerive7(t *testing.T) {
	lib45 := lib2D(t)
	lib7 := Derive7(lib45, PaperScale7)
	if lib7.Node != tech.N7 || lib7.VDD != 0.7 {
		t.Errorf("7nm header wrong: %v %v", lib7.Node, lib7.VDD)
	}
	c45 := lib45.MustCell("INV_X1")
	c7 := lib7.MustCell("INV_X1")
	if r := c7.PinCap["A"] / c45.PinCap["A"]; math.Abs(r-0.179) > 1e-9 {
		t.Errorf("pin cap scale = %v, want 0.179", r)
	}
	if r := c7.Leakage / c45.Leakage; math.Abs(r-0.678) > 1e-9 {
		t.Errorf("leakage scale = %v, want 0.678", r)
	}
	// Delay at proportionally scaled conditions scales by the delay factor.
	a45, a7 := c45.Arc("A", "Z"), c7.Arc("A", "Z")
	d45 := a45.Delay.At(37.5, 3.2)
	d7 := a7.Delay.At(37.5*0.420, 3.2*0.179)
	if math.Abs(d7/d45-0.471) > 0.01 {
		t.Errorf("delay scale = %v, want 0.471", d7/d45)
	}
	// Area shrinks by the square of the geometry factor.
	if r := c7.Area / c45.Area; math.Abs(r-(7.0/45)*(7.0/45)) > 1e-9 {
		t.Errorf("area scale = %v", r)
	}
}

func TestScalePinCap(t *testing.T) {
	lib := lib2D(t)
	p60 := lib.ScalePinCap(0.4) // the paper's -p60 case
	c, c60 := lib.MustCell("NAND2_X1"), p60.MustCell("NAND2_X1")
	for pin, v := range c.PinCap {
		if math.Abs(c60.PinCap[pin]-v*0.4) > 1e-12 {
			t.Errorf("pin %s: %v, want %v", pin, c60.PinCap[pin], v*0.4)
		}
	}
	// Other properties untouched.
	if c60.Leakage != c.Leakage || c60.Area != c.Area {
		t.Error("ScalePinCap must only change pin caps")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	lib := lib2D(t)
	data, err := lib.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(lib.Cells) {
		t.Fatalf("cell count %d != %d", len(back.Cells), len(lib.Cells))
	}
	a := lib.MustCell("MUX2_X2").WorstArc("Z")
	b := back.MustCell("MUX2_X2").WorstArc("Z")
	if a.Delay.At(20, 2) != b.Delay.At(20, 2) {
		t.Error("delay tables differ after round trip")
	}
	// Def re-binding restores logic functions.
	if back.MustCell("XOR2_X1").Def.Logic == nil {
		t.Error("decoded cell lost its logic function")
	}
	if _, err := DecodeJSON([]byte("not json")); err == nil {
		t.Error("garbage should not decode")
	}
}

// The embedded artifacts are exactly what cmd/charlib writes: EncodeJSON's
// sorted-name bytes, so a regeneration that changes no number changes no
// byte.
func TestEmbeddedLibrariesCanonical(t *testing.T) {
	for _, name := range []string{"libdata/lib45_2d.json", "libdata/lib45_tmi.json"} {
		data, err := libData.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := lib.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s is not in EncodeJSON's canonical form (regenerate with go run ./cmd/charlib)", name)
		}
	}
}

// Property: LUT interpolation stays within the convex hull of table values
// for in-range queries.
func TestLUTBounds(t *testing.T) {
	lib := lib2D(t)
	a := lib.MustCell("INV_X1").Arc("A", "Z")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range a.Delay.V {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	f := func(s, l float64) bool {
		slew := 7.5 + math.Mod(math.Abs(s), 142.5)
		load := 0.8 + math.Mod(math.Abs(l), 12.0)
		v := a.Delay.At(slew, load)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMustCellPanics(t *testing.T) {
	lib := lib2D(t)
	defer func() {
		if recover() == nil {
			t.Error("MustCell should panic on unknown cell")
		}
	}()
	lib.MustCell("NOPE_X9")
}
