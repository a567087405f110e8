package wlm

import (
	"math"
	"testing"
	"testing/quick"

	"tmi3d/internal/tech"
)

func TestLengthMonotoneInFanout(t *testing.T) {
	m := Build(tech.New(tech.N45, tech.Mode2D), 25000)
	prev := 0.0
	for f := 1; f <= 40; f++ {
		l := m.Length(f)
		if l <= prev {
			t.Fatalf("length(%d)=%v not increasing", f, l)
		}
		prev = l
	}
	// Fanout clamping at the low end.
	if m.Length(0) != m.Length(1) || m.Length(-3) != m.Length(1) {
		t.Error("fanout below 1 should clamp")
	}
}

func TestRCScalesWithLength(t *testing.T) {
	m := Build(tech.New(tech.N45, tech.Mode2D), 25000)
	r1, c1 := m.RC(1)
	r4, c4 := m.RC(4)
	if r4 <= r1 || c4 <= c1 {
		t.Error("RC should grow with fanout")
	}
	if math.Abs(r4/r1-c4/c1) > 1e-9 {
		t.Error("R and C must scale identically (same length)")
	}
	if r1 <= 0 || c1 <= 0 {
		t.Error("unit parasitics must be positive")
	}
}

// The T-MI model predicts 20-30% shorter wires than 2D (Section 3.4).
func TestTMIShorterWires(t *testing.T) {
	m2 := BuildForMode(tech.N45, tech.Mode2D, 25000)
	m3 := BuildForMode(tech.N45, tech.ModeTMI, 25000)
	for _, f := range []int{1, 3, 8, 20} {
		ratio := m3.Length(f) / m2.Length(f)
		if ratio < 0.68 || ratio > 0.88 {
			t.Errorf("fanout %d: T-MI/2D length ratio %.3f, want 0.7-0.85", f, ratio)
		}
	}
}

func TestBiggerDieLongerWires(t *testing.T) {
	small := Build(tech.New(tech.N45, tech.Mode2D), 10000)
	big := Build(tech.New(tech.N45, tech.Mode2D), 160000)
	if big.Length(4) <= small.Length(4) {
		t.Error("wirelength statistics must grow with die size")
	}
	// Scaling ~ sqrt(area): 16× area → ~4× length.
	r := big.Length(4) / small.Length(4)
	if r < 2.5 || r > 6 {
		t.Errorf("16x area → length ratio %.2f, want ≈4", r)
	}
}

// Property: extrapolated lengths are finite and positive for any fanout.
func TestLengthAlwaysPositive(t *testing.T) {
	m := Build(tech.New(tech.N7, tech.ModeTMI), 4000)
	f := func(fo uint8) bool {
		l := m.Length(int(fo))
		return l > 0 && !math.IsInf(l, 0) && !math.IsNaN(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
