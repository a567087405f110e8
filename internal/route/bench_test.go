package route

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/place"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// routing keeps the benchmark's result live.
var routing *Result

// BenchmarkRoute times one global routing (both rip-up passes) of the fixed
// LDPC@1.0 T-MI placement — the paper-scale design on which routing is about
// a third of a flow.
func BenchmarkRoute(b *testing.B) {
	lib, err := liberty.Default(tech.N45, tech.ModeTMI)
	if err != nil {
		b.Fatal(err)
	}
	d, err := circuits.Generate("LDPC", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.ModeTMI, 20000)})
	if err != nil {
		b.Fatal(err)
	}
	tt := tech.New(tech.N45, tech.ModeTMI)
	p, err := place.Run(sr.Design, place.Options{Lib: lib, Tech: tt, TargetUtil: 0.72})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(p, Options{Tech: tt})
		if err != nil {
			b.Fatal(err)
		}
		routing = r
	}
}
