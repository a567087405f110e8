package flow

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"tmi3d/internal/lint"

	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

const testScale = 0.15

func run(t testing.TB, cfg Config) *Result {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = testScale
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFlowCompletesAndMeetsTiming(t *testing.T) {
	for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
		r := run(t, Config{Circuit: "AES", Node: tech.N45, Mode: mode})
		if r.WNS < 0 {
			t.Errorf("%v: timing not met (WNS=%v)", mode, r.WNS)
		}
		if r.NumCells == 0 || r.TotalWL <= 0 || r.Power.Total <= 0 {
			t.Errorf("%v: empty result %+v", mode, r)
		}
		if r.Util <= 0.3 || r.Util > 1.0 {
			t.Errorf("%v: implausible utilization %v", mode, r.Util)
		}
	}
}

// The iso-performance comparison must reproduce the paper's directional
// claims at any scale: footprint ≈ −40%, shorter wires, lower power.
func TestIsoPerformanceComparison(t *testing.T) {
	r2 := run(t, Config{Circuit: "LDPC", Node: tech.N45, Mode: tech.Mode2D})
	r3 := run(t, Config{Circuit: "LDPC", Node: tech.N45, Mode: tech.ModeTMI})
	if r2.ClockPs != r3.ClockPs {
		t.Fatal("iso-performance comparison must share the clock")
	}
	d := Diff(r2, r3)
	if d.Footprint > -30 || d.Footprint < -50 {
		t.Errorf("footprint delta %.1f%%, want ≈-40%%", d.Footprint)
	}
	if d.WL > -10 {
		t.Errorf("wirelength delta %.1f%%, want clearly negative", d.WL)
	}
	if d.Total > -1 {
		t.Errorf("total power delta %.1f%%, want negative", d.Total)
	}
	if d.Net > 0 {
		t.Errorf("net power delta %.1f%%, want negative", d.Net)
	}
}

func TestClockCalibration(t *testing.T) {
	if f := clockCalibrationFactor("AES", tech.N45); f <= 1 {
		t.Errorf("AES 45nm factor = %v", f)
	}
	if f := clockCalibrationFactor("AES", tech.N7); f <= clockCalibrationFactor("AES", tech.N45) {
		t.Error("7nm pressure factor should exceed 45nm (wires scale worse)")
	}
	if f := clockCalibrationFactor("UNKNOWN", tech.N45); f != 1 {
		t.Errorf("unknown circuit factor = %v, want 1", f)
	}
}

func TestPinCapScaleReducesNetPower(t *testing.T) {
	base := run(t, Config{Circuit: "DES", Node: tech.N7, Mode: tech.Mode2D})
	p60 := run(t, Config{Circuit: "DES", Node: tech.N7, Mode: tech.Mode2D, PinCapScale: 0.4})
	if p60.Power.Pin >= base.Power.Pin {
		t.Errorf("pin power %v should drop with 60%% smaller pin caps (%v)",
			p60.Power.Pin, base.Power.Pin)
	}
	if p60.Power.Total >= base.Power.Total {
		t.Error("total power should drop with smaller pin caps")
	}
}

func TestResistivityScaleImprovesTiming(t *testing.T) {
	base := run(t, Config{Circuit: "M256", Node: tech.N7, Mode: tech.Mode2D, Scale: 0.08})
	lowR := run(t, Config{Circuit: "M256", Node: tech.N7, Mode: tech.Mode2D, Scale: 0.08,
		ResistivityScale: map[tech.LayerClass]float64{
			tech.ClassM1: 0.5, tech.ClassLocal: 0.5, tech.ClassIntermediate: 0.5,
		}})
	// Table 9's claim: lower resistivity reduces power (smaller cells meet
	// timing); at minimum it must not increase it materially.
	if lowR.Power.Total > base.Power.Total*1.03 {
		t.Errorf("lower resistivity raised power: %v vs %v", lowR.Power.Total, base.Power.Total)
	}
}

func TestActivityOverride(t *testing.T) {
	lo := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D})
	hi := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D,
		Activities: actOf(0.2, 0.4)})
	if hi.Power.Total <= lo.Power.Total {
		t.Error("4x sequential activity should raise power")
	}
}

func TestWLSamplesPopulated(t *testing.T) {
	r := run(t, Config{Circuit: "AES", Node: tech.N45, Mode: tech.Mode2D})
	if len(r.WLSamples) == 0 {
		t.Fatal("no wirelength samples for Fig 6")
	}
	n := 0
	for _, xs := range r.WLSamples {
		n += len(xs)
	}
	if n < r.NumCells/2 {
		t.Errorf("only %d sampled nets for %d cells", n, r.NumCells)
	}
}

func TestDiffZeroSafe(t *testing.T) {
	r := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D})
	d := Diff(r, r)
	if d.Footprint != 0 || d.Total != 0 || math.IsNaN(d.WL) {
		t.Errorf("self-diff should be zero: %+v", d)
	}
}

func TestUnknownCircuitErrors(t *testing.T) {
	if _, err := Run(Config{Circuit: "NOPE", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1}); err == nil {
		t.Error("unknown circuit should error")
	}
}

func actOf(pi, seq float64) (a power.Activities) {
	a.PrimaryInput, a.SeqOutput = pi, seq
	return a
}

func TestClockTreeAccounted(t *testing.T) {
	r := run(t, Config{Circuit: "AES", Node: tech.N45, Mode: tech.Mode2D})
	if r.ClockWL <= 0 || r.ClockBuffers <= 0 {
		t.Errorf("clock tree missing: WL=%v buffers=%d", r.ClockWL, r.ClockBuffers)
	}
	if r.ClockWL >= r.TotalWL {
		t.Error("clock tree cannot dominate total wirelength")
	}
	// The T-MI clock tree shrinks with the die.
	r3 := run(t, Config{Circuit: "AES", Node: tech.N45, Mode: tech.ModeTMI})
	if r3.ClockWL >= r.ClockWL {
		t.Errorf("T-MI clock tree %v should be shorter than 2D %v", r3.ClockWL, r.ClockWL)
	}
}

// The lint gates run by default at every stage boundary and a clean flow
// produces three clean reports; GateOff suppresses them entirely.
func TestLintGates(t *testing.T) {
	r := run(t, Config{Circuit: "DES", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1})
	if len(r.LintReports) != 3 {
		t.Fatalf("want 3 lint reports (post-synth, post-place, post-route), got %d", len(r.LintReports))
	}
	for _, rep := range r.LintReports {
		if !rep.Clean() {
			t.Errorf("%s: %d lint errors in a passing flow", rep.Subject, rep.Errors())
		}
	}
	stages := []string{"post-synth", "post-place", "post-route"}
	for i, rep := range r.LintReports {
		if !strings.Contains(rep.Subject, stages[i]) {
			t.Errorf("report %d subject %q, want stage %q", i, rep.Subject, stages[i])
		}
	}

	off := run(t, Config{Circuit: "DES", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1, Lint: lint.GateOff})
	if len(off.LintReports) != 0 {
		t.Errorf("GateOff still produced %d reports", len(off.LintReports))
	}
}

func TestEquivGates(t *testing.T) {
	r := run(t, Config{Circuit: "DES", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1})
	if len(r.EquivReports) != 3 {
		t.Fatalf("want 3 equiv reports (post-synth, post-place, post-route), got %d", len(r.EquivReports))
	}
	stages := []string{"post-synth vs source", "post-place vs post-synth", "post-route vs post-place"}
	for i, rep := range r.EquivReports {
		if !rep.Equivalent() {
			t.Errorf("%s: flow stage disproved: %v", rep.Subject, rep.Err())
		}
		if !strings.Contains(rep.Subject, stages[i]) {
			t.Errorf("report %d subject %q, want stage %q", i, rep.Subject, stages[i])
		}
		// The flow's transformations are buffer/sizing only, so the shared
		// AIG must close every point structurally — zero SAT calls.
		if rep.BySAT != 0 {
			t.Errorf("%s: %d points needed SAT in a logic-neutral flow", rep.Subject, rep.BySAT)
		}
	}
	if r.LibCheck == nil {
		t.Fatal("library check not run")
	}
	if err := r.LibCheck.Err(); err != nil {
		t.Errorf("library check: %v", err)
	}

	off := run(t, Config{Circuit: "DES", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1, Equiv: lint.GateOff})
	if len(off.EquivReports) != 0 || off.LibCheck != nil {
		t.Errorf("GateOff still produced %d equiv reports (libcheck=%v)", len(off.EquivReports), off.LibCheck)
	}
}

// Analyze is the flow's own sign-off: on a flow's final design and
// placement it reproduces every physical field of the flow's Result bit for
// bit, including under the config fields sign-off reads (activities, pin
// capacitance, resistivity) and at 7 nm.
func TestAnalyzeReproducesFlow(t *testing.T) {
	for _, cfg := range []Config{
		{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.Mode2D},
		{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.ModeTMI, ClockPs: 2000},
		{Circuit: "DES", Scale: 0.05, Node: tech.N7, Mode: tech.ModeTMI, PinCapScale: 0.6,
			Activities:       actOf(0.3, 0.2),
			ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 0.5}},
	} {
		r := run(t, cfg)
		d, pl, err := r.Implementation()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(r.Config, d, pl)
		if err != nil {
			t.Fatal(err)
		}
		got, want := *a.Result, *r
		got.SynthStats, got.OptStats, got.LibCheck = r.SynthStats, r.OptStats, r.LibCheck
		got.LintReports, got.EquivReports = r.LintReports, r.EquivReports
		got.StageTimes = r.StageTimes
		want.Implementation = nil // func values are DeepEqual only when nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v %v: Analyze gives WL %v, WNS %v, power %+v; the flow gave WL %v, WNS %v, power %+v",
				cfg.Circuit, cfg.Node, cfg.Mode, got.TotalWL, got.WNS, *got.Power, r.TotalWL, r.WNS, *r.Power)
		}
	}
}
