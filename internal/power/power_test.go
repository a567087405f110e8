package power

import (
	"math"
	"strings"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

func lib(t testing.TB) *liberty.Library {
	t.Helper()
	l, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func noWire(int) sta.WireRC { return sta.WireRC{} }

func mapped(t testing.TB, name string, scale float64) *netlist.Design {
	t.Helper()
	d, err := circuits.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Instances {
		d.Instances[i].CellName = d.Instances[i].Func + "_X1"
	}
	return d
}

func TestPropagateBasics(t *testing.T) {
	l := lib(t)
	d := netlist.New("p")
	d.AddPI("a", "a")
	d.AddPI("b", "b")
	d.AddInstance("x", "XOR2", map[string]string{"A": "a", "B": "b", "Z": "x"}, "Z")
	d.AddInstance("n", "AND2", map[string]string{"A": "a", "B": "b", "Z": "y"}, "Z")
	d.AddInstance("i", "INV", map[string]string{"A": "x", "Z": "xi"}, "Z")
	d.AddPO("ox", "xi")
	d.AddPO("oy", "y")
	d.SetClock("clk")
	for i := range d.Instances {
		d.Instances[i].CellName = d.Instances[i].Func + "_X1"
	}
	prob, act, err := Propagate(d, l, DefaultActivities())
	if err != nil {
		t.Fatal(err)
	}
	ax := act[d.NetByName("x")]
	// XOR of two inputs with activity 0.2 each: toggles when exactly one
	// toggles = 2·0.2·0.8 = 0.32.
	if math.Abs(ax-0.32) > 1e-9 {
		t.Errorf("XOR activity = %v, want 0.32", ax)
	}
	if p := prob[d.NetByName("x")]; math.Abs(p-0.5) > 1e-9 {
		t.Errorf("XOR probability = %v, want 0.5", p)
	}
	// AND of two p=0.5 inputs: P(out=1) = 0.25.
	if p := prob[d.NetByName("y")]; math.Abs(p-0.25) > 1e-9 {
		t.Errorf("AND probability = %v, want 0.25", p)
	}
	// An inverter preserves activity exactly.
	if ai := act[d.NetByName("xi")]; math.Abs(ai-ax) > 1e-9 {
		t.Errorf("INV activity = %v, want %v", ai, ax)
	}
	// AND activity: toggles when the output function changes; for p=0.5,
	// α=0.2 inputs this is below the input activity sum and positive.
	ay := act[d.NetByName("y")]
	if ay <= 0 || ay >= 0.4 {
		t.Errorf("AND activity = %v, want in (0, 0.4)", ay)
	}
}

// Activities stay bounded (≤1) everywhere — the cycle-based model cannot
// produce glitch blow-up.
func TestActivitiesBounded(t *testing.T) {
	l := lib(t)
	d := mapped(t, "LDPC", 0.05)
	_, act, err := Propagate(d, l, DefaultActivities())
	if err != nil {
		t.Fatal(err)
	}
	for ni, a := range act {
		if a < 0 || a > 1.0001 {
			t.Fatalf("net %d activity %v out of bounds", ni, a)
		}
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	l := lib(t)
	d := mapped(t, "AES", 0.05)
	rep, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 {
		t.Fatal("no power")
	}
	if math.Abs(rep.Total-(rep.Cell+rep.Net+rep.Leakage)) > 1e-9 {
		t.Error("total != cell + net + leakage")
	}
	if math.Abs(rep.Net-(rep.Wire+rep.Pin)) > 1e-9 {
		t.Error("net != wire + pin")
	}
	if rep.Pin <= 0 || rep.Leakage <= 0 || rep.Cell <= 0 {
		t.Errorf("breakdown has empty components: %+v", rep)
	}
	// No wire parasitics → no wire power.
	if rep.Wire != 0 {
		t.Errorf("wire power %v with zero wire caps", rep.Wire)
	}
}

func TestWireCapCountsAsWirePower(t *testing.T) {
	l := lib(t)
	d := mapped(t, "FPU", 0.05)
	dry, _ := Analyze(d, Env{Lib: l, Wire: noWire})
	wet, err := Analyze(d, Env{Lib: l, Wire: func(int) sta.WireRC {
		return sta.WireRC{R: 50, C: 3}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if wet.Wire <= dry.Wire {
		t.Error("adding wire cap must add wire power")
	}
	if wet.Pin != dry.Pin {
		t.Error("pin power must not depend on wire cap")
	}
}

// Doubling the sequential activity factor raises power roughly linearly in
// the switching part, and the 2D result is monotone (the Fig 11 premise).
func TestActivityScaling(t *testing.T) {
	l := lib(t)
	d := mapped(t, "M256", 0.02)
	var prev float64
	for _, a := range []float64{0.1, 0.2, 0.4} {
		rep, err := Analyze(d, Env{Lib: l, Wire: noWire,
			Activities: Activities{PrimaryInput: 0.2, SeqOutput: a}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total <= prev {
			t.Errorf("power should grow with activity: %v after %v", rep.Total, prev)
		}
		prev = rep.Total
	}
}

// Faster clocks burn proportionally more dynamic power.
func TestClockScaling(t *testing.T) {
	l := lib(t)
	d := mapped(t, "DES", 0.05)
	slow, _ := Analyze(d, Env{Lib: l, Wire: noWire, ClockPs: 4000})
	fast, _ := Analyze(d, Env{Lib: l, Wire: noWire, ClockPs: 2000})
	dynSlow := slow.Total - slow.Leakage
	dynFast := fast.Total - fast.Leakage
	if math.Abs(dynFast-2*dynSlow)/dynFast > 0.01 {
		t.Errorf("dynamic power should double at half the period: %v vs %v", dynFast, dynSlow)
	}
	if slow.Leakage != fast.Leakage {
		t.Error("leakage must not depend on clock")
	}
}

func TestAnalyzeNeedsClock(t *testing.T) {
	l := lib(t)
	d := netlist.New("noclk")
	d.AddPI("a", "a")
	d.AddInstance("g", "INV", map[string]string{"A": "a", "Z": "z"}, "Z")
	d.Instances[0].CellName = "INV_X1"
	d.AddPO("o", "z")
	d.SetClock("clk")
	if _, err := Analyze(d, Env{Lib: l, Wire: noWire}); err == nil {
		t.Error("zero clock should error")
	}
}

func TestByFunctionBreakdown(t *testing.T) {
	l := lib(t)
	d := mapped(t, "LDPC", 0.05)
	rep, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range rep.ByFunction {
		sum += p
	}
	if math.Abs(sum-rep.Cell)/rep.Cell > 1e-9 {
		t.Errorf("per-function powers sum to %v, cell total %v", sum, rep.Cell)
	}
	// LDPC is XOR- and DFF-dominated.
	if rep.ByFunction["XOR2"] <= 0 || rep.ByFunction["DFF"] <= 0 {
		t.Errorf("expected XOR2 and DFF entries: %v", rep.ByFunction)
	}
}

// An instance that leaves one of its cell's inputs unbound is an error naming
// the instance and the pin, not a silent read of whichever net has index 0
// (which once gave this NAND2 probability 0.75 from net a counted twice).
func TestPropagateUnboundInput(t *testing.T) {
	l := lib(t)
	d := netlist.New("unbound")
	d.AddPI("a", "a")
	d.AddInstance("g", "NAND2", map[string]string{"A": "a", "Z": "z"}, "Z")
	d.Instances[0].CellName = "NAND2_X1"
	d.AddPO("o", "z")
	d.SetClock("clk")
	prob, _, err := Propagate(d, l, DefaultActivities())
	if err == nil {
		t.Fatalf("unbound input B propagated without error: P(z) = %v", prob[d.NetByName("z")])
	}
	if msg := err.Error(); !strings.Contains(msg, `"g"`) || !strings.Contains(msg, "input B") {
		t.Errorf("error %q does not name instance g and pin B", msg)
	}
}
