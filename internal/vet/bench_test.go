package vet

import (
	"path/filepath"
	"testing"
)

// BenchmarkVet measures a full analysis pass over the real module: parse,
// type-check (source importer, stdlib included), and all four analyzers.
// Baseline in BENCH_vet.json; this is the cost scripts/check.sh pays per run,
// so regressions here slow every CI cycle.
func BenchmarkVet(b *testing.B) {
	root := filepath.Join("..", "..")
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Analyze", func(b *testing.B) {
		mod, err := Load(root)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if diags := Run(mod, All); len(diags) != 0 {
				b.Fatalf("repo not clean: %d diagnostics", len(diags))
			}
		}
	})
}
