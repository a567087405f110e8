package spice

import (
	"math"
	"testing"

	"tmi3d/internal/device"
)

func TestRCCharge(t *testing.T) {
	c := New()
	c.AddV("s", Ramp{V0: 0, V1: 1, T0: 0, Rise: 0.01})
	c.AddR("s", "a", 1.0) // 1 kΩ
	c.AddC("a", Ground, 2.0)
	res, err := c.Transient(Options{Stop: 10, Step: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	va := res.Voltage("a")
	// τ = 2 ps; compare against the analytic charge curve.
	for k, tm := range res.Times {
		if tm < 0.1 {
			continue
		}
		want := 1 - math.Exp(-(tm-0.005)/2.0)
		if math.Abs(va[k]-want) > 0.02 {
			t.Fatalf("v(a) at t=%.2f = %.4f, want %.4f", tm, va[k], want)
		}
	}
	// Energy drawn from the source to fully charge C through R is C·V² = 2 fJ
	// (half stored, half dissipated).
	e := res.SourceEnergy(0, 0, 10)
	if math.Abs(e-2.0) > 0.1 {
		t.Errorf("source energy = %.3f fJ, want ≈2.0", e)
	}
}

func TestRCDivider(t *testing.T) {
	// Static resistive divider: checks the DC operating point.
	c := New()
	c.AddV("s", DC(1.0))
	c.AddR("s", "m", 1.0)
	c.AddR("m", Ground, 3.0)
	res, err := c.Transient(Options{Stop: 1, Step: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vm := res.Voltage("m")
	if math.Abs(vm[0]-0.75) > 1e-6 || math.Abs(vm[len(vm)-1]-0.75) > 1e-6 {
		t.Errorf("divider voltage = %v, want 0.75", vm[0])
	}
}

func TestCrossAndSlew(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4}
	wave := []float64{0, 0.25, 0.5, 0.75, 1.0}
	tc, ok := CrossTime(times, wave, 0.5, true, 0)
	if !ok || math.Abs(tc-2.0) > 1e-9 {
		t.Errorf("CrossTime = %v ok=%v, want 2.0", tc, ok)
	}
	// Interpolated crossing.
	tc, ok = CrossTime(times, wave, 0.6, true, 0)
	if !ok || math.Abs(tc-2.4) > 1e-9 {
		t.Errorf("CrossTime(0.6) = %v, want 2.4", tc)
	}
	if _, ok := CrossTime(times, wave, 0.5, false, 0); ok {
		t.Error("no falling crossing exists")
	}
	sl, ok := SlewTime(times, wave, 0, 1, true, 0)
	if !ok || math.Abs(sl-3.2) > 1e-9 { // 10%→90% of a 4 ps linear ramp
		t.Errorf("SlewTime = %v, want 3.2", sl)
	}
}

// A CMOS inverter built from the 45nm models must actually invert, with a
// delay in the right ballpark for the Nangate X1 drive strength.
func TestInverterTransient(t *testing.T) {
	c := New()
	vdd := 1.1
	c.AddV("vdd", DC(vdd))
	c.AddV("a", Ramp{V0: 0, V1: vdd, T0: 20, Rise: 7.5})
	c.AddMOS(device.PTM45(device.PMOS), 0.63, "z", "a", "vdd")
	c.AddMOS(device.PTM45(device.NMOS), 0.415, "z", "a", Ground)
	c.AddC("z", Ground, 0.8)
	res, err := c.Transient(Options{Stop: 120, Step: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vz := res.Voltage("z")
	if vz[0] < vdd*0.95 {
		t.Fatalf("inverter output should start high, got %.3f", vz[0])
	}
	if last := vz[len(vz)-1]; last > 0.05 {
		t.Fatalf("inverter output should end low, got %.3f", last)
	}
	tIn, ok1 := CrossTime(res.Times, res.Voltage("a"), vdd/2, true, 0)
	tOut, ok2 := CrossTime(res.Times, vz, vdd/2, false, 0)
	if !ok1 || !ok2 {
		t.Fatal("missing 50% crossings")
	}
	delay := tOut - tIn
	// Table 2 fast case: 17.2 ps for the 2D INV. The raw device-only netlist
	// (no cell parasitics) should be in the same ballpark but faster.
	if delay < 1 || delay > 40 {
		t.Errorf("inverter delay = %.2f ps, want O(10 ps)", delay)
	}
	// Energy drawn during the output fall is short-circuit plus Miller
	// coupling (which can briefly back-drive the supply) — small either way.
	e := res.SourceEnergy(0, 10, 120)
	if math.Abs(e) > 1.0 {
		t.Errorf("fall-transition supply energy %.4f fJ, want |e| < 1 fJ", e)
	}
}

// Rising output: supply must deliver at least the load energy C·V².
func TestInverterRiseEnergy(t *testing.T) {
	c := New()
	vdd := 1.1
	load := 2.0
	c.AddV("vdd", DC(vdd))
	c.AddV("a", Ramp{V0: vdd, V1: 0, T0: 20, Rise: 7.5})
	c.AddMOS(device.PTM45(device.PMOS), 0.63, "z", "a", "vdd")
	c.AddMOS(device.PTM45(device.NMOS), 0.415, "z", "a", Ground)
	c.AddC("z", Ground, load)
	res, err := c.Transient(Options{Stop: 200, Step: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	vz := res.Voltage("z")
	if last := vz[len(vz)-1]; last < vdd*0.95 {
		t.Fatalf("output should rise to VDD, got %.3f", last)
	}
	e := res.SourceEnergy(0, 0, 200)
	loadEnergy := load * vdd * vdd
	if e < loadEnergy*0.95 {
		t.Errorf("supply energy %.3f fJ below load energy %.3f fJ", e, loadEnergy)
	}
	// And not absurdly more (gate caps and junction caps add some).
	if e > loadEnergy*2.5 {
		t.Errorf("supply energy %.3f fJ implausibly high (load %.3f)", e, loadEnergy)
	}
}

func TestTransmissionGatePassesBothWays(t *testing.T) {
	// NMOS pass transistor driven hard on: output follows input through the
	// symmetric source/drain handling.
	c := New()
	c.AddV("g", DC(1.1))
	c.AddV("in", Ramp{V0: 0, V1: 0.4, T0: 5, Rise: 1})
	c.AddMOS(device.PTM45(device.NMOS), 0.5, "out", "g", "in")
	c.AddC("out", Ground, 1.0)
	res, err := c.Transient(Options{Stop: 60, Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	vo := res.Voltage("out")
	if final := vo[len(vo)-1]; math.Abs(final-0.4) > 0.05 {
		t.Errorf("pass-gate output = %.3f, want ≈0.4", final)
	}
}

func TestErrorsAndGuards(t *testing.T) {
	c := New()
	if _, err := c.Transient(Options{Stop: -1}); err == nil {
		t.Error("negative stop time should error")
	}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { c.AddR("a", "b", 0) })
	mustPanic(func() { c.AddC("a", "b", -1) })
	// Zero capacitance is silently dropped.
	before := len(c.caps)
	c.AddC("a", "b", 0)
	if len(c.caps) != before {
		t.Error("zero cap should be ignored")
	}
	if v := (&Result{circ: c}).Voltage("nosuch"); v != nil {
		t.Error("unknown node voltage should be nil")
	}
}

func TestNodeDedup(t *testing.T) {
	c := New()
	a := c.Node("a")
	if c.Node("a") != a {
		t.Error("Node should be idempotent")
	}
	if c.Node(Ground) != 0 {
		t.Error("ground must be node 0")
	}
	if c.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", c.NumNodes())
	}
}

func TestMatrixSolve(t *testing.T) {
	m := newMatrix(3)
	// [2 1 0; 1 3 1; 0 1 2] x = [3;5;3] → x = [1;1;1]
	m.add(0, 0, 2)
	m.add(0, 1, 1)
	m.add(1, 0, 1)
	m.add(1, 1, 3)
	m.add(1, 2, 1)
	m.add(2, 1, 1)
	m.add(2, 2, 2)
	b := []float64{3, 5, 3}
	x := make([]float64, 3)
	if err := m.solve(b, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("x[%d] = %v, want 1", i, v)
		}
	}
	s := newMatrix(2) // all zeros → singular
	if err := s.solve([]float64{1, 1}, make([]float64, 2)); err == nil {
		t.Error("singular matrix should error")
	}
}
