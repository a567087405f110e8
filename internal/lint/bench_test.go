package lint_test

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// linted keeps the benchmark's result live.
var linted *lint.Report

// BenchmarkCheckDesign times one design-rule check of the synthesized FPU
// benchmark at scale 0.15 against its library, the flow's post-synthesis
// lint gate.
func BenchmarkCheckDesign(b *testing.B) {
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
	opts := lint.DesignOptions{Lib: lib}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linted = lint.CheckDesign(sr.Design, opts)
	}
}
