package route

import (
	"math"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/place"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

func routed(t testing.TB, circuit string, scale float64, mode tech.Mode) (*Result, *place.Placement) {
	t.Helper()
	p := placed(t, circuit, scale, mode)
	r, err := Run(p, Options{Tech: tech.New(tech.N45, mode)})
	if err != nil {
		t.Fatal(err)
	}
	return r, p
}

// placed synthesizes and places a benchmark circuit for routing at 45 nm.
func placed(t testing.TB, circuit string, scale float64, mode tech.Mode) *place.Placement {
	t.Helper()
	lib, err := liberty.Default(tech.N45, mode)
	if err != nil {
		t.Fatal(err)
	}
	d, err := circuits.Generate(circuit, scale)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, mode, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	tt := tech.New(tech.N45, mode)
	p, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEveryNetRouted(t *testing.T) {
	r, p := routed(t, "AES", 0.08, tech.Mode2D)
	d := p.Design
	for ni := range d.Nets {
		if ni == d.ClockNet || len(d.Nets[ni].Sinks) == 0 {
			continue
		}
		if r.Routes[ni].Len <= 0 {
			t.Fatalf("net %d (%s) unrouted", ni, d.Nets[ni].Name)
		}
		if r.Routes[ni].Vias < 2 {
			t.Fatalf("net %d has %d vias, want ≥2", ni, r.Routes[ni].Vias)
		}
	}
	if r.TotalLen <= 0 {
		t.Fatal("no total wirelength")
	}
}

// Routed length must upper-bound HPWL per net (rectilinear routing).
func TestRoutedLengthBoundsHPWL(t *testing.T) {
	r, p := routed(t, "FPU", 0.08, tech.Mode2D)
	d := p.Design
	violations := 0
	for ni := range d.Nets {
		if ni == d.ClockNet || len(d.Nets[ni].Sinks) == 0 {
			continue
		}
		hp := p.NetHPWL(ni)
		// Gcell quantization can make very short nets appear shorter than
		// their exact HPWL; allow one gcell of slack.
		if r.Routes[ni].Len < hp-2*r.Pitch {
			violations++
		}
	}
	if violations > len(d.Nets)/50 {
		t.Errorf("%d nets routed below their HPWL", violations)
	}
}

// Total routed length lands near total HPWL (within the usual global-routing
// inflation factor).
func TestTotalLengthSane(t *testing.T) {
	r, p := routed(t, "DES", 0.08, tech.Mode2D)
	hp := totalHPWL(p)
	if r.TotalLen < hp*0.8 || r.TotalLen > hp*2.0 {
		t.Errorf("routed %.0f vs HPWL %.0f: outside [0.8, 2.0]×", r.TotalLen, hp)
	}
}

// Layer classes follow net length: all three groups used, with local
// carrying many nets and global carrying the long ones (Fig 10).
func TestLayerClassDistribution(t *testing.T) {
	r, _ := routed(t, "LDPC", 0.08, tech.Mode2D)
	local := r.LenByClass[tech.ClassM1] + r.LenByClass[tech.ClassLocal]
	inter := r.LenByClass[tech.ClassIntermediate]
	global := r.LenByClass[tech.ClassGlobal]
	if local <= 0 || inter <= 0 {
		t.Errorf("local/intermediate unused: %v %v", local, inter)
	}
	sum := local + inter + global
	if math.Abs(sum-r.TotalLen)/r.TotalLen > 1e-6 {
		t.Errorf("class lengths %.0f don't add to total %.0f", sum, r.TotalLen)
	}
}

// The T-MI stack has more local capacity, so the same design suffers less
// congestion than in 2D even on a ~40% smaller die (Section 3.3).
func TestTMICongestionRelief(t *testing.T) {
	r2, _ := routed(t, "AES", 0.15, tech.Mode2D)
	r3, _ := routed(t, "AES", 0.15, tech.ModeTMI)
	if r3.Overflow > r2.Overflow*2+500 {
		t.Errorf("T-MI overflow %d should not explode vs 2D %d despite the smaller die",
			r3.Overflow, r2.Overflow)
	}
	if r3.TotalLen >= r2.TotalLen {
		t.Errorf("T-MI wirelength %.0f should be below 2D %.0f", r3.TotalLen, r2.TotalLen)
	}
}

func TestGridGeometry(t *testing.T) {
	r, p := routed(t, "FPU", 0.05, tech.Mode2D)
	if r.GX < 2 || r.GY < 2 {
		t.Errorf("grid %dx%d too small", r.GX, r.GY)
	}
	if float64(r.GX-1)*r.Pitch > p.Die.W()+2*r.Pitch {
		t.Errorf("grid wider than die")
	}
	if r.MaxCongestion < 0 {
		t.Error("negative congestion")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Error("missing tech should error")
	}
}

// totalHPWL sums NetHPWL over every net but the clock (routed as an ideal
// network).
func totalHPWL(p *place.Placement) float64 {
	total := 0.0
	for ni := range p.Design.Nets {
		if ni != p.Design.ClockNet {
			total += p.NetHPWL(ni)
		}
	}
	return total
}
