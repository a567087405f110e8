package opt

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
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

func wire(r, c float64) func(int) sta.WireRC {
	return func(int) sta.WireRC { return sta.WireRC{R: r, C: c} }
}

func TestClosesAchievableTiming(t *testing.T) {
	l := lib(t)
	d := mapped(t, "LDPC", 0.05)
	d.TargetClockPs = 4500
	st, err := Close(d, Options{Lib: l, Wire: wire(20, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalWNS < 0 {
		t.Errorf("achievable clock not closed: WNS=%v after %d upsizes, %d buffers",
			st.FinalWNS, st.Upsized, st.BuffersAdd)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpsizesUnderPressure(t *testing.T) {
	l := lib(t)
	d := mapped(t, "DES", 0.06)
	d.TargetClockPs = 1400
	st, err := Close(d, Options{Lib: l, Wire: wire(20, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Upsized == 0 {
		t.Error("tight clock should force upsizing")
	}
	larger := 0
	for i := range d.Instances {
		if l.MustCell(d.Instances[i].CellName).Strength > 1 {
			larger++
		}
	}
	if larger == 0 {
		t.Error("no cells above X1 after closure")
	}
}

// Power recovery must downsize on a relaxed clock and keep timing met.
func TestPowerRecovery(t *testing.T) {
	l := lib(t)
	d := mapped(t, "FPU", 0.05)
	// Pre-inflate everything to X4.
	for i := range d.Instances {
		c := l.MustCell(d.Instances[i].CellName)
		if up := l.Upsize(c); up != nil {
			if up2 := l.Upsize(up); up2 != nil {
				d.Instances[i].CellName = up2.Name
			}
		}
	}
	d.TargetClockPs = 12000
	st, err := Close(d, Options{Lib: l, Wire: wire(20, 1), PowerRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Downsized == 0 {
		t.Error("relaxed clock with X4 cells should downsize")
	}
	if st.FinalWNS < 0 {
		t.Errorf("recovery must preserve timing: WNS=%v", st.FinalWNS)
	}
}

// Max-cap violations get buffered even when timing is already met.
func TestMaxCapBuffering(t *testing.T) {
	l := lib(t)
	d := netlist.New("mc")
	d.AddPI("a", "a")
	d.AddInstance("drv", "INV", map[string]string{"A": "a", "Z": "n"}, "Z")
	d.Instances[0].CellName = "INV_X1"
	for i := 0; i < 8; i++ {
		out := "z" + string(rune('0'+i))
		d.AddInstance("s"+out, "INV", map[string]string{"A": "n", "Z": out}, "Z")
		d.Instances[len(d.Instances)-1].CellName = "INV_X1"
		d.AddPO("o"+out, out)
	}
	d.SetClock("clk")
	d.TargetClockPs = 100000
	// Huge wire cap on every net → the X1 driver is way over its max cap.
	st, err := Close(d, Options{Lib: l, Wire: wire(100, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if st.BuffersAdd == 0 {
		t.Error("60 fF load on an X1 inverter must trigger buffering")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every benchmark, optimized under pressure with the debug assertions on,
// must stay formally equivalent to its pre-optimization netlist — and since
// buffers are identity functions, the proof must close structurally, with
// zero SAT calls.
func TestOptimizerPreservesLogic(t *testing.T) {
	l := lib(t)
	buffered := 0
	for _, name := range circuits.Names {
		t.Run(name, func(t *testing.T) {
			d := mapped(t, name, 0.04)
			d.TargetClockPs = 900
			before := d.Clone()
			// Heavy wire parasitics force both max-cap and timing buffering.
			st, err := Close(d, Options{Lib: l, Wire: wire(60, 8), DebugChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			buffered += st.BuffersAdd
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			rep, err := equiv.Check(before, d, equiv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Equivalent() {
				t.Fatalf("optimizer changed logic of %s: %v", name, rep.Err())
			}
			if rep.BySAT != 0 {
				t.Errorf("buffer-only transform should prove structurally, needed %d SAT calls", rep.BySAT)
			}
		})
	}
	if buffered == 0 {
		t.Error("regression exercised no buffer insertions — tighten the setup")
	}
}

// The debug assertions must actually fire on a logic-corrupting insertion.
func TestDebugChecksCatchInverter(t *testing.T) {
	d := netlist.New("bad")
	d.AddPI("a", "a")
	d.AddInstance("g", "INV", map[string]string{"A": "a", "Z": "n"}, "Z")
	d.AddInstance("s1", "INV", map[string]string{"A": "n", "Z": "z1"}, "Z")
	d.AddInstance("s2", "INV", map[string]string{"A": "n", "Z": "z2"}, "Z")
	d.AddPO("o1", "z1")
	d.AddPO("o2", "z2")
	d.SetClock("clk")
	ni, _ := d.Instances[0].Pins.Net("Z")
	prev := len(d.Nets[ni].Sinks)
	moved := []netlist.PinRef{{Inst: 2, Pin: "A"}}
	// "Repeater" that is actually an inverter: polarity check must fire.
	newNet, instIdx := d.InsertBuffer(ni, moved, "INV", "INV_X1")
	err := checkBufferInsertion(d, Options{}, ni, newNet, instIdx, prev)
	if err == nil || !strings.Contains(err.Error(), "inverts") {
		t.Fatalf("inverting insertion not caught: %v", err)
	}

	// And a clean insertion passes.
	prev = len(d.Nets[ni].Sinks)
	moved = []netlist.PinRef{{Inst: 1, Pin: "A"}}
	newNet, instIdx = d.InsertBuffer(ni, moved, "BUF", "BUF_X4")
	if err := checkBufferInsertion(d, Options{}, ni, newNet, instIdx, prev); err != nil {
		t.Fatalf("clean insertion rejected: %v", err)
	}
}

func TestNoChangesWhenComfortable(t *testing.T) {
	l := lib(t)
	d := mapped(t, "FPU", 0.05)
	d.TargetClockPs = 50000
	st, err := Close(d, Options{Lib: l, Wire: wire(5, 0.2)})
	if err != nil {
		t.Fatal(err)
	}
	// DRV (max-cap) buffering is timing-independent and may still fire on
	// high-fanout operand nets; no *timing* moves should be needed.
	if st.Upsized != 0 {
		t.Errorf("relaxed design should need no upsizing: %+v", st)
	}
	if st.FinalWNS < 0 {
		t.Error("should be met")
	}
}

// Stats.FinalWNS is a plain JSON field, which encoding/json rejects when
// non-finite. Infinite wire resistance drives WNS to -Inf; the returned
// Stats must still encode.
func TestStatsEncodeWithInfiniteWNS(t *testing.T) {
	d := mapped(t, "FPU", 0.05)
	st, err := Close(d, Options{Lib: lib(t), Wire: wire(math.Inf(1), 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatalf("stats of a -Inf WNS closure do not encode: %v", err)
	}
}

// With DebugChecks on, Close compares every incremental timing result with
// a from-scratch sta.Analyze, bit for bit, and fails on the first
// difference. The oracle runs the pre-route closure with power recovery
// (all four loops: max-cap, timing, downsizing, repair) on every circuit in
// both modes, plus LDPC at half the paper's size.
func TestIncrementalTimingMatchesFullAnalysis(t *testing.T) {
	type run struct {
		circuit string
		scale   float64
		mode    tech.Mode
	}
	var runs []run
	for _, name := range circuits.Names {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			runs = append(runs, run{name, 0.1, mode})
		}
	}
	runs = append(runs, run{"LDPC", 0.5, tech.ModeTMI})
	var total Stats
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s@%g/%s", r.circuit, r.scale, r.mode), func(t *testing.T) {
			lib, fresh := placedDesign(t, r.circuit, r.scale, r.mode)
			d, pl, wire := fresh()
			// 95% of the relaxed critical path: tight enough for upsizing
			// and buffering, loose enough for power recovery to downsize.
			relaxed, err := sta.Analyze(d, sta.Env{Lib: lib, Wire: wire})
			if err != nil {
				t.Fatal(err)
			}
			d.TargetClockPs = 0.95 * (relaxed.ClockPs - relaxed.WNS)
			st, err := Close(d, Options{
				Lib: lib, Wire: wire, Placement: pl, MaxRounds: 8, PowerRecovery: true, DebugChecks: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%+v", *st)
			total.Upsized += st.Upsized
			total.Downsized += st.Downsized
			total.BuffersAdd += st.BuffersAdd
		})
	}
	if total.Upsized == 0 || total.Downsized == 0 || total.BuffersAdd == 0 {
		t.Errorf("oracle exercised too few edits: %+v", total)
	}
}
