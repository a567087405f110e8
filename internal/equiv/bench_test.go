package equiv

import (
	"testing"

	"tmi3d/internal/circuits"
)

// checked keeps the benchmark's result live.
var checked *Report

// BenchmarkCheck times one equivalence proof of the FPU benchmark at scale
// 0.15 against its synthesized netlist, the flow's post-synthesis sign-off
// gate.
func BenchmarkCheck(b *testing.B) {
	d, err := circuits.Generate("FPU", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	s := synthesize(b, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Check(d, s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		checked = rep
	}
}
