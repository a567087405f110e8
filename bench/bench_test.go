package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smokeSizes keep every workload to a few seconds.
var smokeSizes = sizes{matrix: 0.01, ldpc: 0.01, sweep: 0.01, hot: 0.01, cold: 0.01}

// TestSmoke runs every workload once at tiny size with every correctness
// check on (one repetition; serve for two seconds), and traced runs of one
// flow workload and one serve workload, so the benchmark keeps compiling
// against, and agreeing with, the layers it drives. Host-speed readings are
// a constant 1: the calibrator runs in the parent process.
func TestSmoke(t *testing.T) {
	traced := map[string]bool{"flow_ldpc": true, "serve_mix": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w, 0) })
		if traced[w.name] {
			t.Run(w.name+"/traced", func(t *testing.T) { smoke(t, w, 1) })
		}
	}
}

func smoke(t *testing.T, w *workload, trace int) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{seed: 7, sz: smokeSizes, dir: t.TempDir(), golden: golden, cal: func() float64 { return 1 },
		extra: map[string][]float64{}, layers: map[string]float64{}}
	if w.start != nil {
		r.window = 2 * time.Second
	}
	res, err := runChild(r, w, options{workload: w.name, trace: trace, traceDir: t.TempDir()}, func() {})
	if err != nil {
		t.Fatalf("%s trace=%d: %v", w.name, trace, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s trace=%d: attempted %d failed %d: %v", w.name, trace, res.Attempted, res.Failed, res.Errors)
	}
	if trace == 0 {
		if len(res.Latency) == 0 {
			t.Errorf("%s: no timed operation", w.name)
		}
		return
	}
	for _, m := range perLayer {
		if _, ok := res.Layers[m.name]; !ok {
			t.Errorf("%s traced: layer metric %s missing", w.name, m.name)
		}
	}
	for _, s := range profileStages {
		if res.Layers[s.span+"_s"] <= 0 {
			t.Errorf("%s traced: %s_s = %v, want > 0", w.name, s.span, res.Layers[s.span+"_s"])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		benchmarkDef
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, def.Workloads[i], w.name, w.why)
		}
	}
	for _, set := range []struct {
		json []benchMetric
		prog []metric
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(set.json), len(set.prog))
		}
		for i, m := range set.prog {
			better := "higher"
			if m.lowerBetter {
				better = "lower"
			}
			if j := set.json[i]; j.Name != m.name || j.Unit != m.unit || j.Better != better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s %s %s", i, j, m.name, m.unit, better)
			}
		}
	}
}

// TestGoldenCoversSeedOne fails when the workloads' seed-1 configurations
// change without regenerating golden.json (go run . -write-golden golden.json).
func TestGoldenCoversSeedOne(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, cfg := range goldenConfigs() {
		want[cfg.Key()] = true
		if _, ok := golden[cfg.Key()]; !ok {
			t.Errorf("golden.json has no digest for %s", cfg.Key())
		}
	}
	for k := range golden {
		if !want[k] {
			t.Errorf("golden.json digest for %s, which no workload runs", k)
		}
	}
}
