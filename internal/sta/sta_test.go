package sta

import (
	"math"
	"strings"
	"testing"

	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
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

// chain builds in → INV × n → DFF with the given cell bindings.
func chain(n int, cell string) *netlist.Design {
	d := netlist.New("chain")
	d.AddPI("in", "n0")
	prev := "n0"
	for i := 0; i < n; i++ {
		next := "n" + string(rune('a'+i))
		d.AddInstance("inv"+next, "INV", map[string]string{"A": prev, "Z": next}, "Z")
		d.Instances[len(d.Instances)-1].CellName = cell
		prev = next
	}
	d.AddInstance("ff", "DFF", map[string]string{"D": prev, "CK": "clk", "Q": "q"}, "Q")
	d.Instances[len(d.Instances)-1].CellName = "DFF_X1"
	d.AddPO("out", "q")
	d.SetClock("clk")
	d.TargetClockPs = 1000
	return d
}

func noWire(int) WireRC { return WireRC{} }

func TestChainTiming(t *testing.T) {
	l := lib(t)
	d := chain(5, "INV_X1")
	res, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival at the DFF D input ≈ 5 × INV delay; slack = T − setup − arrival.
	dNet := d.NetByName("ne")
	if dNet < 0 {
		t.Fatal("missing net")
	}
	arr := res.Arrival[dNet]
	if arr < 30 || arr > 300 {
		t.Errorf("5-inverter chain arrival = %.1f ps, want O(100)", arr)
	}
	// Two endpoints exist: the DFF D pin (T − setup − arr) and the PO fed
	// by the clk→Q arc; WNS is the worse of the two.
	dSlack := 1000 - l.MustCell("DFF_X1").Setup - arr
	qNet := d.NetByName("q")
	poSlack := 1000 - res.Arrival[qNet]
	want := math.Min(dSlack, poSlack)
	if math.Abs(res.WNS-want) > 1 {
		t.Errorf("WNS = %.1f, want %.1f (D %.1f, PO %.1f)", res.WNS, want, dSlack, poSlack)
	}
	if !res.Met() {
		t.Error("relaxed clock should meet")
	}
	// Required-time consistency at the D endpoint.
	if math.Abs(res.Slack(dNet)-dSlack) > 1 {
		t.Errorf("endpoint slack %.1f, want %.1f", res.Slack(dNet), dSlack)
	}
}

func TestLongerChainIsSlower(t *testing.T) {
	l := lib(t)
	r5, _ := Analyze(chain(5, "INV_X1"), Env{Lib: l, Wire: noWire})
	r10, _ := Analyze(chain(10, "INV_X1"), Env{Lib: l, Wire: noWire})
	if r10.WNS >= r5.WNS {
		t.Errorf("10-stage WNS %.1f should be worse than 5-stage %.1f", r10.WNS, r5.WNS)
	}
}

func TestWireRCAddsDelay(t *testing.T) {
	l := lib(t)
	d := chain(3, "INV_X1")
	dry, _ := Analyze(d, Env{Lib: l, Wire: noWire})
	wet, _ := Analyze(d, Env{Lib: l, Wire: func(int) WireRC {
		return WireRC{R: 500, C: 10}
	}})
	if wet.WNS >= dry.WNS {
		t.Errorf("wire parasitics must degrade slack: %v vs %v", wet.WNS, dry.WNS)
	}
}

func TestUpsizingHelpsUnderLoad(t *testing.T) {
	l := lib(t)
	heavy := func(int) WireRC { return WireRC{R: 200, C: 25} }
	r1, _ := Analyze(chain(4, "INV_X1"), Env{Lib: l, Wire: heavy})
	r4, _ := Analyze(chain(4, "INV_X4"), Env{Lib: l, Wire: heavy})
	if r4.WNS <= r1.WNS {
		t.Errorf("X4 chain under heavy load should be faster: %v vs %v", r4.WNS, r1.WNS)
	}
}

func TestTightClockViolates(t *testing.T) {
	l := lib(t)
	d := chain(20, "INV_X1")
	d.TargetClockPs = 100
	res, _ := Analyze(d, Env{Lib: l, Wire: noWire})
	if res.Met() {
		t.Error("20 inverters cannot fit in 100 ps")
	}
	if res.TNS >= 0 {
		t.Error("TNS should be negative")
	}
	if res.CriticalNet < 0 {
		t.Error("critical net should be reported")
	}
}

func TestClockOverride(t *testing.T) {
	l := lib(t)
	d := chain(5, "INV_X1")
	a, _ := Analyze(d, Env{Lib: l, Wire: noWire, ClockPs: 5000})
	b, _ := Analyze(d, Env{Lib: l, Wire: noWire, ClockPs: 100})
	if a.WNS-b.WNS != 4900 {
		t.Errorf("clock override delta = %v, want 4900", a.WNS-b.WNS)
	}
}

func TestLevelizeDetectsCycle(t *testing.T) {
	d := netlist.New("cyc")
	d.AddInstance("a", "INV", map[string]string{"A": "x", "Z": "y"}, "Z")
	d.AddInstance("b", "INV", map[string]string{"A": "y", "Z": "x"}, "Z")
	if _, err := Levelize(d); err == nil {
		t.Error("combinational loop should error")
	}
}

func TestLevelizeOrdersDependencies(t *testing.T) {
	d := chain(6, "INV_X1")
	order, err := Levelize(d)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for k, ii := range order {
		pos[ii] = k
	}
	// Inverter i must come before inverter i+1 (indices 0..5).
	for i := 0; i < 5; i++ {
		if pos[i] > pos[i+1] {
			t.Fatalf("instance %d ordered after %d", i, i+1)
		}
	}
}

func TestUnmappedInstanceErrors(t *testing.T) {
	l := lib(t)
	d := chain(2, "INV_X1")
	d.Instances[0].CellName = ""
	if _, err := Analyze(d, Env{Lib: l, Wire: noWire}); err == nil {
		t.Error("unmapped instance should error")
	}
	d2 := chain(2, "NOT_A_CELL")
	if _, err := Analyze(d2, Env{Lib: l, Wire: noWire}); err == nil {
		t.Error("unknown cell should error")
	}
}

// A driver-only instance (no input pins, so never a sink) with a bad cell
// binding used to slip past the load pass and reach the propagation loops,
// where `c, _ := cellOf(...)` discarded the error and left a nil cell.
// resolveCells must reject it up front.
func TestMissingCellOnDriverOnlyInstanceErrors(t *testing.T) {
	l := lib(t)
	d := chain(2, "INV_X1")
	d.AddInstance("tie", "TIE0", map[string]string{"Z": "floating"}, "Z")
	d.Instances[len(d.Instances)-1].CellName = "NOT_A_CELL"
	res, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err == nil {
		t.Fatalf("missing cell on driver-only instance should error, got %+v", res)
	}
	if !strings.Contains(err.Error(), "NOT_A_CELL") {
		t.Errorf("error should name the unknown cell: %v", err)
	}
}

// Pins the Elmore lumped-π wire-delay formula R·(load − C/2)/1000, clamped at
// zero, so no restructuring of the timing passes can silently change it.
// (The pre-parallel code spelled the load term R·(C/2 + load − C); that
// collapses to the same expression and is now written directly.)
func TestWireDelayElmoreForm(t *testing.T) {
	// 2 kΩ through (25 − 10/2) fF of far-end capacitance = 40 ps, exactly.
	if got := WireDelay(WireRC{R: 2000, C: 10}, 25); got != 40 {
		t.Errorf("WireDelay(R=2000, C=10, load=25) = %v, want exactly 40", got)
	}
	// Load below half the wire's own C clamps to zero, never negative.
	if got := WireDelay(WireRC{R: 1000, C: 10}, 2); got != 0 {
		t.Errorf("WireDelay with load < C/2 = %v, want 0", got)
	}
	// Zero-parasitic nets contribute nothing.
	if got := WireDelay(WireRC{}, 7); got != 0 {
		t.Errorf("WireDelay with no wire = %v, want 0", got)
	}
}

func TestMuxSPinIsInput(t *testing.T) {
	if isOutputPin("MUX2", "S") {
		t.Error("S is the select input on MUX2")
	}
	if !isOutputPin("FA", "S") {
		t.Error("S is the sum output on FA")
	}
	if !isOutputPin("INV", "Z") || isOutputPin("INV", "A") {
		t.Error("Z/A classification wrong")
	}
}

func TestHoldAnalysis(t *testing.T) {
	l := lib(t)
	// Direct DFF→DFF path: minimum arrival = clk→Q delay, which comfortably
	// exceeds the characterized hold time.
	d := netlist.New("hold")
	d.AddPI("din", "din")
	d.AddInstance("ff1", "DFF", map[string]string{"D": "din", "CK": "clk", "Q": "q1"}, "Q")
	d.Instances[0].CellName = "DFF_X1"
	d.AddInstance("ff2", "DFF", map[string]string{"D": "q1", "CK": "clk", "Q": "q2"}, "Q")
	d.Instances[1].CellName = "DFF_X1"
	d.AddPO("out", "q2")
	d.SetClock("clk")
	d.TargetClockPs = 1000
	res, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	if res.HoldWNS < 0 {
		t.Errorf("register-to-register path should meet hold: %v", res.HoldWNS)
	}
	// The hold slack is the worse of the PI→ff1 path (input delay − hold)
	// and the ff1→ff2 path (clk→Q delay − hold).
	dff := l.MustCell("DFF_X1")
	arc := dff.Arc("CK", "Q")
	want := math.Min(20-dff.Hold, arc.Delay.At(20, res.Load[d.NetByName("q1")])-dff.Hold)
	if math.Abs(res.HoldWNS-want) > 1 {
		t.Errorf("hold slack %v, want %v", res.HoldWNS, want)
	}
	// Min arrival uses the FASTEST path: adding a slow parallel path must
	// not change the hold slack.
	prev := res.HoldWNS
	d2 := chain(8, "INV_X1")
	res2, err := Analyze(d2, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	if res2.HoldWNS < prev-200 {
		t.Errorf("chain hold slack %v suspicious", res2.HoldWNS)
	}
}

func TestCriticalPath(t *testing.T) {
	l := lib(t)
	d := chain(6, "INV_X1")
	d.TargetClockPs = 100 // force the inverter chain to be critical
	env := Env{Lib: l, Wire: noWire}
	res, err := Analyze(d, env)
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(d, env, res)
	if len(path) < 7 { // input + 6 inverters
		t.Fatalf("path has %d stages, want ≥7", len(path))
	}
	// Startpoint is the primary input, endpoint the critical net.
	if path[0].Instance != "<input>" {
		t.Errorf("startpoint = %q", path[0].Instance)
	}
	if got := path[len(path)-1].Net; got != d.Nets[res.CriticalNet].Name {
		t.Errorf("endpoint net %q != critical %q", got, d.Nets[res.CriticalNet].Name)
	}
	// Arrivals must be non-decreasing along the path.
	for i := 1; i < len(path); i++ {
		if path[i].Arrival < path[i-1].Arrival-1e-9 {
			t.Errorf("arrival decreases at stage %d: %v after %v", i, path[i].Arrival, path[i-1].Arrival)
		}
	}
	text := FormatPath(path, res)
	if !strings.Contains(text, "critical path") || !strings.Contains(text, "INV_X1") {
		t.Errorf("format:\n%s", text)
	}
}

// An input pin with no Pins entry has no net to time from: every pass skips
// its arc, and the instance's connected arcs still time.
func TestUnconnectedInputPinSkipped(t *testing.T) {
	l := lib(t)
	d := netlist.New("open")
	d.AddPI("a", "a")
	d.AddInstance("g", "NAND2", map[string]string{"A": "a", "Z": "z"}, "Z") // B left open
	d.Instances[0].CellName = "NAND2_X1"
	d.AddInstance("ff", "DFF", map[string]string{"D": "z", "CK": "clk", "Q": "q"}, "Q")
	d.Instances[1].CellName = "DFF_X1"
	d.AddPO("out", "q")
	d.SetClock("clk")
	d.TargetClockPs = 1000
	res, err := Analyze(d, Env{Lib: l, Wire: noWire})
	if err != nil {
		t.Fatal(err)
	}
	a, z := d.NetByName("a"), d.NetByName("z")
	arc := l.MustCell("NAND2_X1").Arc("A", "Z")
	dff := l.MustCell("DFF_X1")
	delay := arc.Delay.At(20, res.Load[z])
	if want := delay; res.Arrival[z] != want {
		t.Errorf("arrival at z = %v, want the A→Z arc's %v", res.Arrival[z], want)
	}
	if want := arc.OutSlew.At(20, res.Load[z]); res.Slew[z] != want {
		t.Errorf("slew at z = %v, want %v", res.Slew[z], want)
	}
	// Hold: the PI's 20 ps input delay plus the same arc, against the
	// flop's hold window (the D pin is the only hold endpoint).
	if want := 20 + delay - dff.Hold; res.HoldWNS != want {
		t.Errorf("hold slack %v, want %v", res.HoldWNS, want)
	}
	// Backward: the required time at a is z's, less the arc.
	if want := 1000 - dff.Setup - delay; res.Required[a] != want {
		t.Errorf("required at a = %v, want %v", res.Required[a], want)
	}
}
