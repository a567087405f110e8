package netlist_test

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// cloned keeps the benchmark's result live.
var cloned *netlist.Design

// BenchmarkClone times one copy of the synthesized FPU benchmark at scale
// 0.15, the copy a mutating stage (synth, opt, signoff) makes of its input.
func BenchmarkClone(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloned = sr.Design.Clone()
	}
}
