package stage

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// BenchmarkStagedSweep measures the staged engine's reuse on the workload it
// exists for: a clock sweep of one circuit (the Fig 4 iso-performance axis).
// Wall time on a loaded single-core runner is noisy, so the headline metric is
// deterministic work avoided — stage-body executions per sweep point, reported
// as stage-execs/point (all stages) and upstream-execs/point (the wlm → synth
// → place cone a sweep should run once, not per point).
//
//   - monolithic: flow.Run per point; every stage executes every point.
//   - staged-cold: a fresh engine and store; the first point pays full price,
//     later points reuse the upstream cone from memory.
//   - staged-warm: the store already holds this sweep's artifacts (a re-run
//     sweep); nothing executes.
//
// The tracked numbers are the repository benchmark's sweep_cold/sweep_warm
// workloads and stage.execs_per_point (make bench-trace).
func BenchmarkStagedSweep(b *testing.B) {
	base, err := circuits.TargetClockPs("FPU", tech.N45)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]flow.Config, 0, 3)
	for _, clk := range []float64{0, base * 1.15, base * 1.4} {
		cfg := testConfig()
		cfg.ClockPs = clk
		cfgs = append(cfgs, cfg)
	}
	points := float64(len(cfgs))

	upstream := func(c map[string]Counters) uint64 {
		return c["wlm"].Executions + c["synth"].Executions + c["place"].Executions
	}

	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := flow.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Each point runs every one of the 12 stages by construction.
		b.ReportMetric(float64(len(Nodes)), "stage-execs/point")
		b.ReportMetric(3, "upstream-execs/point")
	})

	b.Run("staged-cold", func(b *testing.B) {
		var totalExecs, upstreamExecs uint64
		for i := 0; i < b.N; i++ {
			e, err := New(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range cfgs {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			c := e.Counters()
			totalExecs += sumCounters(c).Executions
			upstreamExecs += upstream(c)
		}
		n := points * float64(b.N)
		b.ReportMetric(float64(totalExecs)/n, "stage-execs/point")
		b.ReportMetric(float64(upstreamExecs)/n, "upstream-execs/point")
	})

	b.Run("staged-warm", func(b *testing.B) {
		dir := b.TempDir()
		prime, err := New(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := prime.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		var totalExecs, upstreamExecs uint64
		for i := 0; i < b.N; i++ {
			// A fresh engine over the primed store: the re-run sweep of a new
			// process, every artifact served from disk.
			e, err := New(dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range cfgs {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			c := e.Counters()
			totalExecs += sumCounters(c).Executions
			upstreamExecs += upstream(c)
		}
		n := points * float64(b.N)
		b.ReportMetric(float64(totalExecs)/n, "stage-execs/point")
		b.ReportMetric(float64(upstreamExecs)/n, "upstream-execs/point")
	})
}

// BenchmarkArtifactCodec times the persistent tier's codec per cached node on
// FPU@0.1: encode is what a cold run over a store pays per miss, decode what
// a disk hit pays; -benchmem shows the codec garbage.
func BenchmarkArtifactCodec(b *testing.B) {
	cfg := testConfig()
	e, err := New("")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(cfg); err != nil {
		b.Fatal(err)
	}
	for _, pe := range e.Plan(cfg) {
		if !pe.Cached {
			continue
		}
		n := node(b, pe.Name)
		e.mu.Lock()
		v, ok := e.memGet(pe.ID)
		e.mu.Unlock()
		if !ok {
			b.Fatalf("%s artifact missing from the memory tier", pe.Name)
		}
		data, err := n.Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pe.Name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := n.Encode(v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(pe.Name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := n.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestArtifactDecodeAllocs guards the one-pass artifact decoder: decoding
// the signoff artifact of FPU@0.1 T-MI cuts names from one arena, interns
// the rest, and sizes its slices from byte counts before it reads them.
// It allocates 381 times per decode; through encoding/json, before the
// one-pass decoders, it allocated 19,655 times. The bound is about twice
// the measured count.
func TestArtifactDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := testConfig()
	cfg.Mode = tech.ModeTMI
	e, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	n := node(t, "signoff")
	var data []byte
	for _, pe := range e.Plan(cfg) {
		if pe.Name != "signoff" {
			continue
		}
		e.mu.Lock()
		v, ok := e.memGet(pe.ID)
		e.mu.Unlock()
		if !ok {
			t.Fatal("signoff artifact missing from the memory tier")
		}
		if data, err = n.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := n.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("signoff artifact decode, %d bytes: %.0f allocs/run", len(data), got)
	if got > 800 {
		t.Fatalf("signoff artifact decode made %.0f allocations, want at most 800", got)
	}
}
