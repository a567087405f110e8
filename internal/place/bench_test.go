package place

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// placement keeps the benchmark's result live.
var placement *Placement

// BenchmarkPlace times one placement (bisection, FM refinement and
// legalization) of the synthesized FPU benchmark at scale 0.15.
func BenchmarkPlace(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("FPU", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 20000)})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Lib: lib, Tech: tech.New(tech.N45, tech.Mode2D)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Run(sr.Design, opts)
		if err != nil {
			b.Fatal(err)
		}
		placement = p
	}
}
