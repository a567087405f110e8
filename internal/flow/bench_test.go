package flow

import (
	"runtime"
	"testing"

	"tmi3d/internal/tech"
)

// BenchmarkRun times one whole flow.Run of LDPC@0.2 T-MI at 45 nm, the
// repository benchmark's flow_ldpc operation, with the library and the
// generated netlist already in their process caches (the benchmark's setup).
// The gates run beside the pipeline, so the time depends on the cores the
// flow may use: it reports GOMAXPROCS with it.
func BenchmarkRun(b *testing.B) {
	cfg := Config{Circuit: "LDPC", Scale: 0.2, Node: tech.N45, Mode: tech.ModeTMI}
	if _, _, err := cfg.Library(); err != nil {
		b.Fatal(err)
	}
	if _, _, err := cfg.GenerateDesign(); err != nil {
		b.Fatal(err)
	}
	LibraryCheck()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}
