package tech

import (
	"math"
	"testing"
)

func TestStackSizes(t *testing.T) {
	cases := []struct {
		node Node
		mode Mode
		want int
	}{
		{N45, Mode2D, 8},
		{N45, ModeTMI, 12},
		{N45, ModeTMIM, 13}, // MB1 + M1-5 local + M6-10 intermediate + M11-12 global
		{N7, Mode2D, 8},
		{N7, ModeTMI, 12},
		{N7, ModeTMIM, 13},
	}
	for _, c := range cases {
		tt := New(c.node, c.mode)
		if got := len(tt.Layers); got != c.want {
			t.Errorf("%v %v: %d layers, want %d", c.node, c.mode, got, c.want)
		}
	}
}

// Table 3: class membership of the 45nm stacks.
func TestStackClasses45(t *testing.T) {
	td := New(N45, Mode2D)
	if n := len(td.LayersOfClass(ClassLocal)); n != 2 {
		t.Errorf("2D local layers = %d, want 2 (M2-3)", n)
	}
	if n := len(td.LayersOfClass(ClassIntermediate)); n != 3 {
		t.Errorf("2D intermediate layers = %d, want 3 (M4-6)", n)
	}
	if n := len(td.LayersOfClass(ClassGlobal)); n != 2 {
		t.Errorf("2D global layers = %d, want 2 (M7-8)", n)
	}

	tm := New(N45, ModeTMI)
	if n := len(tm.LayersOfClass(ClassLocal)); n != 5 {
		t.Errorf("T-MI local layers = %d, want 5 (M2-6)", n)
	}
	if n := len(tm.LayersOfClass(ClassM1)); n != 2 {
		t.Errorf("T-MI M1-class layers = %d, want 2 (MB1, M1)", n)
	}
	if tm.Layers[0].Name != "MB1" || tm.Layers[0].Tier != TierBottom {
		t.Errorf("first T-MI layer = %+v, want MB1 on bottom tier", tm.Layers[0])
	}
	// Table 17 / Fig 9(c): T-MI+M trades one local for two intermediate layers.
	tmm := New(N45, ModeTMIM)
	if n := len(tmm.LayersOfClass(ClassLocal)); n != 4 {
		t.Errorf("T-MI+M local layers = %d, want 4", n)
	}
	if n := len(tmm.LayersOfClass(ClassIntermediate)); n != 5 {
		t.Errorf("T-MI+M intermediate layers = %d, want 5", n)
	}
}

// Table 3: wire dimensions.
func TestLayerDimensions45(t *testing.T) {
	td := New(N45, Mode2D)
	m1 := td.Layer("M1")
	if m1 == nil {
		t.Fatal("no M1 layer")
	}
	if m1.Width != 0.070 || m1.Spacing != 0.065 || m1.Thickness != 0.130 {
		t.Errorf("M1 dims = %v/%v/%v, want 0.070/0.065/0.130", m1.Width, m1.Spacing, m1.Thickness)
	}
	m2 := td.Layer("M2")
	if m2.Width != 0.070 || m2.Spacing != 0.070 || m2.Thickness != 0.140 {
		t.Errorf("M2 dims = %v/%v/%v", m2.Width, m2.Spacing, m2.Thickness)
	}
	m8 := td.Layer("M8")
	if m8.Class != ClassGlobal || m8.Width != 0.400 || m8.Thickness != 0.800 {
		t.Errorf("M8 = %+v, want global 0.4/0.8", m8)
	}
}

func TestCellHeights(t *testing.T) {
	if h := New(N45, Mode2D).CellHeight; h != 1.4 {
		t.Errorf("45nm 2D cell height = %v, want 1.4", h)
	}
	if h := New(N45, ModeTMI).CellHeight; h != 0.84 {
		t.Errorf("45nm T-MI cell height = %v, want 0.84 (40%% shorter)", h)
	}
	if h := New(N7, Mode2D).CellHeight; h != 0.218 {
		t.Errorf("7nm 2D cell height = %v, want 0.218", h)
	}
	// The T-MI height shrink carries over to 7nm.
	h2 := New(N7, ModeTMI).CellHeight
	if h2 >= 0.218 {
		t.Errorf("7nm T-MI cell height = %v, want < 0.218", h2)
	}
}

func TestVDDAndDeviceSetup(t *testing.T) {
	if v := New(N45, Mode2D).VDD; v != 1.1 {
		t.Errorf("45nm VDD = %v", v)
	}
	if v := New(N7, Mode2D).VDD; v != 0.7 {
		t.Errorf("7nm VDD = %v", v)
	}
	if l := New(N7, Mode2D).TransistorLength; l != 0.011 {
		t.Errorf("7nm drawn length = %v, want 0.011", l)
	}
}

func TestMIVSpec(t *testing.T) {
	tm := New(N45, ModeTMI)
	if tm.MIV.Diameter != 0.070 {
		t.Errorf("45nm MIV diameter = %v, want 0.070", tm.MIV.Diameter)
	}
	if tm.MIV.Height != 0.110 {
		t.Errorf("45nm MIV height = %v, want ILD 0.110", tm.MIV.Height)
	}
	// "Almost negligible parasitic RC": a few ohms, hundredths of fF.
	if tm.MIV.Resistance <= 0 || tm.MIV.Resistance > 20 {
		t.Errorf("MIV resistance = %v Ω, want small positive", tm.MIV.Resistance)
	}
	if tm.MIV.Cap <= 0 || tm.MIV.Cap > 0.2 {
		t.Errorf("MIV cap = %v fF, want tiny", tm.MIV.Cap)
	}
	t7 := New(N7, ModeTMI)
	if math.Abs(t7.MIV.Diameter-0.0108) > 1e-9 {
		t.Errorf("7nm MIV diameter = %v, want 0.0108", t7.MIV.Diameter)
	}
	// 2D has no MIV.
	if d2 := New(N45, Mode2D); d2.MIV.Diameter != 0 {
		t.Errorf("2D should have no MIV, got %v", d2.MIV)
	}
}

func TestLayerLookup(t *testing.T) {
	tm := New(N45, ModeTMI)
	if tm.Layer("MB1") == nil {
		t.Error("MB1 missing from T-MI stack")
	}
	if tm.Layer("M11") == nil {
		t.Error("M11 missing from T-MI stack")
	}
	if tm.Layer("M12") != nil {
		t.Error("M12 should not exist in T-MI stack")
	}
	if New(N45, ModeTMIM).Layer("M12") == nil {
		t.Error("M12 missing from T-MI+M stack")
	}
	if New(N45, Mode2D).Layer("MB1") != nil {
		t.Error("MB1 should not exist in 2D stack")
	}
}

func TestAlternatingDirections(t *testing.T) {
	td := New(N45, Mode2D)
	prev := td.Layers[0].Horizontal
	for _, l := range td.Layers[1:] {
		if l.Horizontal == prev {
			t.Fatalf("layer %s has same direction as the layer below", l.Name)
		}
		prev = l.Horizontal
	}
}

func TestITRSData(t *testing.T) {
	p45 := ITRS(N45)
	if p45.Year != 2010 || p45.NMOSDriveCurrent != 1210 || p45.CuEffResistivity != 4.08 {
		t.Errorf("ITRS 45nm = %+v", p45)
	}
	p7 := ITRS(N7)
	if p7.Year != 2025 || p7.NMOSDriveCurrent != 2228 || p7.CuEffResistivity != 15.02 {
		t.Errorf("ITRS 7nm = %+v", p7)
	}
	if p7.CuEffResistivity/p45.CuEffResistivity < 3.5 {
		t.Error("7nm copper resistivity should be ~3.7X the 45nm value")
	}
}

func TestSetupTable6(t *testing.T) {
	s45, s7 := Setup(N45), Setup(N7)
	if s45.VDD != 1.1 || s7.VDD != 0.7 {
		t.Errorf("VDD = %v / %v", s45.VDD, s7.VDD)
	}
	if s45.BEOLDielectricK != 2.5 || s7.BEOLDielectricK != 2.2 {
		t.Errorf("k = %v / %v", s45.BEOLDielectricK, s7.BEOLDielectricK)
	}
	if s7.M2Width != 0.0108 || s7.MIVDiameter != 0.0108 {
		t.Errorf("7nm M2/MIV = %v/%v, want 0.0108", s7.M2Width, s7.MIVDiameter)
	}
	if s45.TransistorWidth == s7.TransistorWidth {
		t.Error("planar width varies, FinFET width fixed")
	}
}

func TestStringers(t *testing.T) {
	if N45.String() != "45nm" || N7.String() != "7nm" {
		t.Error("Node.String")
	}
	if Mode2D.String() != "2D" || ModeTMI.String() != "T-MI" || ModeTMIM.String() != "T-MI+M" {
		t.Error("Mode.String")
	}
	if !ModeTMI.Is3D() || Mode2D.Is3D() {
		t.Error("Is3D")
	}
	for _, c := range []LayerClass{ClassM1, ClassLocal, ClassIntermediate, ClassGlobal} {
		if c.String() == "" {
			t.Error("LayerClass.String empty")
		}
	}
}

func TestParseNodeMode(t *testing.T) {
	nodes := map[string]Node{"": N45, "45": N45, "45nm": N45, "45NM": N45, "7": N7, "7nm": N7, "7NM": N7}
	for s, want := range nodes {
		if got, err := ParseNode(s); err != nil || got != want {
			t.Errorf("ParseNode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"22", "45 ", "7n", "nm", "N7", "tmi"} {
		if _, err := ParseNode(s); err == nil {
			t.Errorf("ParseNode(%q) accepted", s)
		}
	}
	modes := map[string]Mode{
		"": Mode2D, "2d": Mode2D, "2D": Mode2D,
		"tmi": ModeTMI, "TMI": ModeTMI, "3d": ModeTMI, "3D": ModeTMI,
		"tmim": ModeTMIM, "TMIM": ModeTMIM, "3d+m": ModeTMIM, "3D+M": ModeTMIM,
	}
	for s, want := range modes {
		if got, err := ParseMode(s); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"tml", "t-mi", "2", "3d+", "tmi+m", "45"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) accepted", s)
		}
	}
}
