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

// benchPlace times one placement (bisection, FM refinement and legalization)
// per op of the synthesized circuit at 45 nm in the given mode.
func benchPlace(b *testing.B, circuit string, scale float64, mode tech.Mode, util float64) {
	lib, err := liberty.Default(tech.N45, mode)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate(circuit, scale)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, mode, 20000)})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Lib: lib, Tech: tech.New(tech.N45, mode), TargetUtil: util}
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

// BenchmarkPlace places the synthesized FPU benchmark at scale 0.15, 2D.
func BenchmarkPlace(b *testing.B) { benchPlace(b, "FPU", 0.15, tech.Mode2D, 0) }

// BenchmarkPlaceLDPC places LDPC@1.0 T-MI at 0.72 utilization: the
// paper-scale design and placement that route's BenchmarkRoute routes.
func BenchmarkPlaceLDPC(b *testing.B) { benchPlace(b, "LDPC", 1.0, tech.ModeTMI, 0.72) }
