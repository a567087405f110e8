package sta_test

import (
	"testing"

	"tmi3d/internal/place"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

// analyzed keeps the benchmark's result live.
var analyzed *sta.Result

// BenchmarkAnalyze times one full analysis of the placed FPU benchmark at
// scale 0.15 with bounding-box wire parasitics, the estimate the optimizer
// re-times against every round.
func BenchmarkAnalyze(b *testing.B) {
	lib, d := synthesized(b, 0.15)
	pl, err := place.Run(d, place.Options{Lib: lib, Tech: tech.New(tech.N45, tech.Mode2D)})
	if err != nil {
		b.Fatal(err)
	}
	env := sta.Env{Lib: lib, Wire: func(ni int) sta.WireRC {
		l := pl.NetHPWL(ni)
		return sta.WireRC{R: 2 * l, C: 0.2 * l}
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sta.Analyze(d, env)
		if err != nil {
			b.Fatal(err)
		}
		analyzed = res
	}
}
