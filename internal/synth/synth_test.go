package synth

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

func setup(t testing.TB) (*liberty.Library, *wlm.Model) {
	t.Helper()
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	return lib, wlm.BuildForMode(tech.N45, tech.Mode2D, 20000)
}

func TestMapsEveryInstance(t *testing.T) {
	lib, model := setup(t)
	d, err := circuits.Generate("FPU", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Options{Lib: lib, WLM: model})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Design.Instances {
		name := res.Design.Instances[i].CellName
		if name == "" || lib.Cell(name) == nil {
			t.Fatalf("instance %d unmapped (%q)", i, name)
		}
	}
	if res.CellArea <= 0 {
		t.Error("no cell area")
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
	// The input design must be untouched (synthesis clones).
	if d.Instances[0].CellName != "" {
		t.Error("source design mutated")
	}
}

func TestFanoutBuffering(t *testing.T) {
	lib, model := setup(t)
	d := netlist.New("fan")
	d.AddPI("a", "a")
	d.AddInstance("drv", "INV", map[string]string{"A": "a", "Z": "big"}, "Z")
	for i := 0; i < 50; i++ {
		out := "z" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		d.AddInstance("ld"+out, "INV", map[string]string{"A": "big", "Z": out}, "Z")
		d.AddPO("o"+out, out)
	}
	d.SetClock("clk")
	d.TargetClockPs = 100000
	res, err := Run(d, Options{Lib: lib, WLM: model})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Design.Stats()
	if st.NumBuffers == 0 {
		t.Fatal("fanout-50 net should be buffered")
	}
	for ni := range res.Design.Nets {
		if ni == res.Design.ClockNet {
			continue
		}
		if f := res.Design.Nets[ni].Fanout(); f > maxFanout {
			t.Errorf("net %d fanout %d exceeds limit", ni, f)
		}
	}
	if err := res.Design.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSizingMeetsAchievableClock(t *testing.T) {
	lib, model := setup(t)
	d, err := circuits.Generate("LDPC", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	d.TargetClockPs = 6000
	res, err := Run(d, Options{Lib: lib, WLM: model})
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS < 0 {
		t.Errorf("relaxed clock should close at synthesis: WNS=%v", res.WNS)
	}
}

// The T-MI wire load model must synthesize a smaller (or equal) netlist than
// the 2D model — the basis of Table 15.
func TestTMIWLMSynthesizesLess(t *testing.T) {
	lib, err := liberty.Default(tech.N45, tech.ModeTMI)
	if err != nil {
		t.Fatal(err)
	}
	d, err := circuits.Generate("LDPC", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m2d := wlm.BuildForMode(tech.N45, tech.Mode2D, 60000)
	m3d := wlm.BuildForMode(tech.N45, tech.ModeTMI, 60000)
	r2, err := Run(d, Options{Lib: lib, WLM: m2d})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(d, Options{Lib: lib, WLM: m3d})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.NumBuffers > r2.Stats.NumBuffers {
		t.Errorf("T-MI WLM should not need more buffers: %d vs %d",
			r3.Stats.NumBuffers, r2.Stats.NumBuffers)
	}
	if r3.CellArea > r2.CellArea {
		t.Errorf("T-MI WLM area %v should be ≤ 2D WLM area %v", r3.CellArea, r2.CellArea)
	}
}

func TestOptionsValidation(t *testing.T) {
	d := netlist.New("x")
	if _, err := Run(d, Options{}); err == nil {
		t.Error("missing lib/WLM should error")
	}
	lib, model := setup(t)
	d2 := netlist.New("y")
	d2.AddPI("a", "a")
	d2.AddInstance("g", "NOSUCH", map[string]string{"A": "a", "Z": "z"}, "Z")
	d2.AddPO("o", "z")
	if _, err := Run(d2, Options{Lib: lib, WLM: model}); err == nil {
		t.Error("unknown function should error")
	}
}
