package stage

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

// testConfig is the shared fast configuration; the clock-sweep points derive
// from it with ClockPs overrides.
func testConfig() flow.Config {
	return flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1}
}

// resultBytes captures everything the byte-identity contract covers: the
// report wire payload and the exported implementation artifacts.
type resultBytes struct {
	report, verilog, def []byte
}

func capture(t *testing.T, res *flow.Result) resultBytes {
	t.Helper()
	report, err := flow.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var v, d bytes.Buffer
	if err := res.Design.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.WriteDEF(&d); err != nil {
		t.Fatal(err)
	}
	return resultBytes{report: report, verilog: v.Bytes(), def: d.Bytes()}
}

func mustEqual(t *testing.T, label string, mono, staged resultBytes) {
	t.Helper()
	for _, c := range []struct {
		kind      string
		want, got []byte
	}{
		{"report", mono.report, staged.report},
		{"verilog", mono.verilog, staged.verilog},
		{"def", mono.def, staged.def},
	} {
		if !bytes.Equal(c.want, c.got) {
			t.Errorf("%s: staged %s bytes differ from monolithic (%d vs %d bytes)",
				label, c.kind, len(c.got), len(c.want))
		}
	}
}

func stagedRun(t *testing.T, e *Engine, cfg flow.Config) (resultBytes, RunStats) {
	t.Helper()
	res, stats, err := e.RunStats(cfg)
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	return capture(t, res), stats
}

func monoRun(t *testing.T, cfg flow.Config) resultBytes {
	t.Helper()
	res, err := flow.Run(cfg)
	if err != nil {
		t.Fatalf("monolithic run: %v", err)
	}
	return capture(t, res)
}

// removeEntries deletes the store entries for the named stages of cfg,
// simulating a partially-populated cache.
func removeEntries(t *testing.T, e *Engine, cfg flow.Config, names ...string) {
	t.Helper()
	for _, pe := range e.Plan(cfg) {
		for _, name := range names {
			if pe.Name == name {
				p := e.Store().EntryPath(storeKey(pe.Name, pe.ID))
				if err := os.Remove(p); err != nil {
					t.Fatalf("remove %s entry: %v", name, err)
				}
			}
		}
	}
}

// The core contract: staged execution is byte-identical to the monolithic
// flow — report payload, Verilog, DEF — under every cache state (cold, memory
// warm, disk warm, partially populated, corrupted), and a clock sweep
// executes synthesis and placement exactly once.
func TestStagedByteIdentity(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	mono := monoRun(t, cfg)

	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := stagedRun(t, e, cfg)
	mustEqual(t, "cold", mono, cold)
	if coldStats.Executions == 0 || coldStats.MemHits != 0 || coldStats.DiskHits != 0 {
		t.Errorf("cold stats = %+v, want executions only", coldStats)
	}

	warm, warmStats := stagedRun(t, e, cfg)
	mustEqual(t, "mem-warm", mono, warm)
	if warmStats.Executions != 0 || warmStats.MemHits == 0 {
		t.Errorf("mem-warm stats = %+v, want memory hits and no executions", warmStats)
	}

	// A fresh engine over the same store: everything from disk.
	e2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk, diskStats := stagedRun(t, e2, cfg)
	mustEqual(t, "disk-warm", mono, disk)
	if diskStats.Executions != 0 || diskStats.DiskHits == 0 {
		t.Errorf("disk-warm stats = %+v, want disk hits and no executions", diskStats)
	}

	// Partial hit: the tail of the pipeline is gone; its recompute consumes
	// the surviving artifacts and must reproduce the same bytes.
	removeEntries(t, e2, cfg, "signoff", "report")
	e3, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	partial, _ := stagedRun(t, e3, cfg)
	mustEqual(t, "partial", mono, partial)
	c3 := e3.Counters()
	for _, name := range []string{"signoff", "report"} {
		if c3[name].Executions != 1 || c3[name].Misses != 1 {
			t.Errorf("partial: %s counters = %+v, want one miss+execution", name, c3[name])
		}
	}
	for _, name := range []string{"synth", "place", "opt", "route", "power"} {
		if c3[name].Executions != 0 {
			t.Errorf("partial: %s executed, want cache hit (counters %+v)", name, c3[name])
		}
	}

	// Corruption: a flipped payload byte quarantines the entry, costing one
	// clean recompute — and the result still matches the monolith.
	removeEntries(t, e3, cfg, "report")
	var powerPath string
	for _, pe := range e3.Plan(cfg) {
		if pe.Name == "power" {
			powerPath = e3.Store().EntryPath(storeKey(pe.Name, pe.ID))
		}
	}
	raw, err := os.ReadFile(powerPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(powerPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e4, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted, _ := stagedRun(t, e4, cfg)
	mustEqual(t, "corrupted", mono, corrupted)
	if q, err := e4.Store().QuarantineLen(); err != nil || q != 1 {
		t.Errorf("quarantined entries = %d (%v), want 1", q, err)
	}
	c4 := e4.Counters()
	if c4["power"].Misses != 1 || c4["power"].Executions != 1 {
		t.Errorf("corrupted: power counters = %+v, want one miss+execution", c4["power"])
	}
	if c4["signoff"].DiskHits == 0 || c4["signoff"].Executions != 0 {
		t.Errorf("corrupted: signoff counters = %+v, want disk hit only", c4["signoff"])
	}
}

// A clock sweep recomputes only the dirty cone: generate/synth/place run for
// the first point and are reused — byte-identically — by every later point.
func TestClockSweepReuse(t *testing.T) {
	base, err := circuits.TargetClockPs("FPU", tech.N45)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clocks := []float64{0, base * 1.15, base * 1.4} // 0 = the Table 12 default
	for i, clk := range clocks {
		cfg := testConfig()
		cfg.ClockPs = clk
		staged, _ := stagedRun(t, e, cfg)
		mustEqual(t, fmt.Sprintf("sweep point %d (clock %.0f)", i, clk), monoRun(t, cfg), staged)
	}
	c := e.Counters()
	for _, name := range []string{"wlm", "synth", "place"} {
		if c[name].Executions != 1 {
			t.Errorf("%s executed %d times across %d sweep points, want 1",
				name, c[name].Executions, len(clocks))
		}
	}
	for _, name := range []string{"opt", "route", "signoff", "power", "report"} {
		if c[name].Executions != uint64(len(clocks)) {
			t.Errorf("%s executed %d times, want %d (every sweep point)",
				name, c[name].Executions, len(clocks))
		}
	}
	if c["synth"].MemHits == 0 {
		t.Errorf("synth counters = %+v, want memory hits from later sweep points", c["synth"])
	}
}

// A cold run publishes the values its stage bodies built rather than
// decoding what it stored, so the published value must be the stored value:
// after the run — every consumer has read it — each cached node's memory-tier
// value encodes to exactly the store's bytes. A body that kept mutating its
// envelope after returning, or a consumer that mutated a shared artifact
// instead of cloning it, fails here. An engine with no store publishes the
// same values and must reproduce flow.Run byte for byte.
func TestPublishedValueIsStored(t *testing.T) {
	cfg := testConfig()
	e, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, pe := range e.Plan(cfg) {
		if !pe.Cached {
			continue
		}
		e.mu.Lock()
		v, ok := e.memGet(pe.ID)
		e.mu.Unlock()
		if !ok {
			t.Fatalf("%s artifact missing from the memory tier after a cold run", pe.Name)
		}
		got, err := encodeNode(pe.Name, v)
		if err != nil {
			t.Fatalf("encode published %s: %v", pe.Name, err)
		}
		stored, ok, err := e.Store().Get(storeKey(pe.Name, pe.ID))
		if err != nil || !ok {
			t.Fatalf("%s artifact missing from the store (%v)", pe.Name, err)
		}
		if !bytes.Equal(got, stored) {
			t.Errorf("%s: published value encodes to %d bytes differing from the %d stored (first diff at %d)",
				pe.Name, len(got), len(stored), firstDiff(got, stored))
		}
	}

	mem, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	staged, _ := stagedRun(t, mem, cfg)
	mustEqual(t, "in-process", monoRun(t, cfg), staged)
}

// A panicking stage body must release its inflight call: the panic reaches
// the caller, and the next run of the same config executes the node afresh
// instead of blocking forever on the abandoned call.
func TestPanickingStageReleasesInflight(t *testing.T) {
	cfg := testConfig()
	e, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	e.SetBeforeExecute(func(name string) {
		if name == "opt" {
			panic("injected opt failure")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the opt body's panic did not reach Run")
			}
		}()
		_, _ = e.Run(cfg)
	}()
	e.SetBeforeExecute(nil)
	if n := len(e.inflight); n != 0 {
		t.Fatalf("%d inflight calls left behind by the panicked run", n)
	}

	done := make(chan error, 1)
	go func() {
		_, err := e.Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("second run of the same config blocked on the panicked run's inflight call")
	}
	if c := e.Counters()["opt"]; c.Executions != 2 {
		t.Errorf("opt counters = %+v, want two executions (panicked, then fresh)", c)
	}
}

// Every artifact the engine persists decodes and re-encodes to identical
// bytes — the exact-inverse codec property artifact addressing depends on.
func TestArtifactRoundTrip(t *testing.T) {
	e, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, pe := range e.Plan(cfg) {
		if !pe.Cached {
			continue
		}
		data, ok, err := e.Store().Get(storeKey(pe.Name, pe.ID))
		if err != nil || !ok {
			t.Fatalf("%s artifact missing after run (%v)", pe.Name, err)
		}
		v, err := decodeNode(pe.Name, data)
		if err != nil {
			t.Fatalf("decode %s: %v", pe.Name, err)
		}
		if pe.Name == "report" {
			continue // raw payload; identity by construction
		}
		again, err := encodeArtifact(v)
		if err != nil {
			t.Fatalf("re-encode %s: %v", pe.Name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s artifact is not a codec fixed point (%d vs %d bytes)",
				pe.Name, len(data), len(again))
		}
	}
}

// Timing vectors legitimately hold non-finite values; the sign-off envelope
// must round-trip them exactly.
func TestNonFiniteTimingRoundTrip(t *testing.T) {
	art := signoffArtifact{
		Timing: &sta.Result{
			Arrival: []float64{math.Inf(-1), 12.5, math.NaN()},
			Slew:    []float64{4.25, math.Inf(1)},
			WNS:     math.Inf(1),
			TNS:     0,
			ClockPs: 850,
		},
	}
	data, err := encodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeNode("signoff", data)
	if err != nil {
		t.Fatal(err)
	}
	back := v.(*signoffArtifact)
	if !math.IsInf(back.Timing.Arrival[0], -1) || !math.IsNaN(back.Timing.Arrival[2]) ||
		!math.IsInf(back.Timing.Slew[1], 1) || !math.IsInf(back.Timing.WNS, 1) {
		t.Fatalf("non-finite values mangled: %+v", back.Timing)
	}
	again, err := encodeArtifact(*back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding differs:\n first %s\nsecond %s", data, again)
	}
}
