package stage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/netlist"
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
	design, pl, err := res.Implementation()
	if err != nil {
		t.Fatal(err)
	}
	var v, d bytes.Buffer
	if err := design.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := pl.WriteDEF(&d); err != nil {
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

// node returns the stage graph node named name.
func node(t testing.TB, name string) *flow.Node {
	t.Helper()
	for i := range Nodes {
		if Nodes[i].Name == name {
			return &Nodes[i]
		}
	}
	t.Fatalf("no stage %q", name)
	return nil
}

// stagedRun runs cfg on e and captures the result, implementation included,
// with this run's cache events: the change in e's counters, summed over
// every stage.
func stagedRun(t *testing.T, e *Engine, cfg flow.Config) (resultBytes, Counters) {
	t.Helper()
	before := e.Counters()
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	got := capture(t, res)
	return got, sumCounters(countersSince(e, before))
}

func sumCounters(byStage map[string]Counters) Counters {
	var sum Counters
	for _, c := range byStage {
		sum.MemHits += c.MemHits
		sum.DiskHits += c.DiskHits
		sum.Misses += c.Misses
		sum.Executions += c.Executions
	}
	return sum
}

// countersSince returns the change in e's counters since before, leaving out
// the stages whose counters did not move.
func countersSince(e *Engine, before map[string]Counters) map[string]Counters {
	out := map[string]Counters{}
	for name, c := range e.Counters() {
		b := before[name]
		d := Counters{
			MemHits:    c.MemHits - b.MemHits,
			DiskHits:   c.DiskHits - b.DiskHits,
			Misses:     c.Misses - b.Misses,
			Executions: c.Executions - b.Executions,
		}
		if d != (Counters{}) {
			out[name] = d
		}
	}
	return out
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
	for _, name := range names {
		if err := os.Remove(entryPath(t, e, cfg, name)); err != nil {
			t.Fatalf("remove %s entry: %v", name, err)
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
	powerPath := entryPath(t, e3, cfg, "power")
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
	if q, err := e4.store.QuarantineLen(); err != nil || q != 1 {
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

// A warm run reads one artifact, the report, until its caller asks for the
// implementation: that reads signoff once, from the tier that holds it, and
// gives flow.Run's Verilog and DEF; asking again reads nothing and returns
// the same values. It holds for a fresh engine over a primed store (disk
// hits) and for an engine without a store re-running a point (memory hits).
func TestWarmRunReadsOneArtifact(t *testing.T) {
	cfg := testConfig()
	mono := monoRun(t, cfg)
	dir := t.TempDir()
	primed, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primed.Run(cfg); err != nil {
		t.Fatal(err)
	}
	warmDisk, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmMem, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmMem.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e    *Engine
		hit  Counters
	}{
		{"disk", warmDisk, Counters{DiskHits: 1}},
		{"memory", warmMem, Counters{MemHits: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mustCount := func(what string, before map[string]Counters, want map[string]Counters) {
				t.Helper()
				if got := countersSince(c.e, before); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: counters moved by %+v, want %+v", what, got, want)
				}
			}
			before := c.e.Counters()
			res, err := c.e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			report, err := flow.EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(report, mono.report) {
				t.Error("warm report bytes differ from flow.Run's")
			}
			mustCount("run", before, map[string]Counters{"report": c.hit})

			before = c.e.Counters()
			d, pl, err := res.Implementation()
			if err != nil {
				t.Fatal(err)
			}
			mustCount("first Implementation call", before, map[string]Counters{"signoff": c.hit})
			var v, def bytes.Buffer
			if err := d.WriteVerilog(&v); err != nil {
				t.Fatal(err)
			}
			if err := pl.WriteDEF(&def); err != nil {
				t.Fatal(err)
			}
			mustEqual(t, c.name, mono, resultBytes{report: report, verilog: v.Bytes(), def: def.Bytes()})

			before = c.e.Counters()
			d2, pl2, err := res.Implementation()
			if err != nil {
				t.Fatal(err)
			}
			if d2 != d || pl2 != pl {
				t.Error("a second Implementation call returned different values")
			}
			mustCount("second Implementation call", before, map[string]Counters{})
		})
	}
}

// An entry whose checksum verifies but whose payload does not decode — an
// artifact truncated or garbled before the store wrote it — is a miss: the
// run executes that node, overwrites the entry with the artifact's real
// bytes, and still matches flow.Run.
func TestUndecodableEntryRecomputes(t *testing.T) {
	cfg := testConfig()
	mono := monoRun(t, cfg)
	dir := t.TempDir()
	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	stagedRun(t, e, cfg)
	for _, c := range []struct {
		name, node string
		damage     func([]byte) []byte
	}{
		{"truncated signoff", "signoff", func(b []byte) []byte { return b[:len(b)/2] }},
		{"signoff with a byte more", "signoff", func(b []byte) []byte { return append(b, 0) }},
		{"garbled signoff", "signoff", func(b []byte) []byte {
			for i := range b {
				b[i] ^= 0x5a
			}
			return b
		}},
		{"truncated report", "report", func(b []byte) []byte { return b[:len(b)-2] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var key string
			for _, pe := range e.Plan(cfg) {
				if pe.Name == c.node {
					key = storeKey(pe.Name, pe.ID)
				}
			}
			good, ok, err := e.store.Get(key)
			if err != nil || !ok {
				t.Fatalf("no %s entry (%v)", c.node, err)
			}
			if err := e.store.Put(key, c.damage(bytes.Clone(good))); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := stagedRun(t, fresh, cfg)
			mustEqual(t, c.name, mono, got)
			if ct := fresh.Counters()[c.node]; ct.Misses != 1 || ct.Executions != 1 || ct.DiskHits != 0 {
				t.Errorf("%s counters = %+v, want one miss and execution", c.node, ct)
			}
			stored, ok, err := e.store.Get(key)
			if err != nil || !ok || !bytes.Equal(stored, good) {
				t.Errorf("the %s entry was not overwritten with its artifact's bytes (%v)", c.node, err)
			}
			if q, err := fresh.store.QuarantineLen(); err != nil || q != 0 {
				t.Errorf("quarantined entries = %d (%v), want 0: the checksums verify", q, err)
			}
		})
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
		got, err := node(t, pe.Name).Encode(v)
		if err != nil {
			t.Fatalf("encode published %s: %v", pe.Name, err)
		}
		stored, ok, err := e.store.Get(storeKey(pe.Name, pe.ID))
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
// instead of blocking forever on the abandoned call. With a store, the
// artifacts built before the panic are on disk when the panic reaches the
// caller, and no writer outlives the run.
func TestPanickingStageReleasesInflight(t *testing.T) {
	for _, c := range []struct {
		name string
		dir  func() string
	}{
		{"memory", func() string { return "" }},
		{"store", t.TempDir},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			e, err := New(c.dir())
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
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
			if e.store != nil {
				// The report's body reads synth, then opt, whose body would
				// read place: wlm and synth are the artifacts the run built
				// before the panic.
				mustStore(t, e, cfg, "wlm", "synth")
				noGoroutineLeft(t, base)
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
		})
	}
}

// A store write that fails fails the run with castore's error, however far
// the run got past the failed write; none of the run's later artifacts is
// stored, and no writer is left behind. Once the store takes writes again,
// the next run of the same engine stores every cached node — the one the
// store refused included — and matches flow.Run byte for byte.
func TestStoreWriteFailureFailsRun(t *testing.T) {
	cfg := testConfig()
	mono := monoRun(t, cfg)
	e, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// A regular file where the opt entry's shard directory belongs, put
	// there once the run has looked the entry up: Put cannot make the
	// directory, whichever user runs the test.
	shard := filepath.Dir(entryPath(t, e, cfg, "opt"))
	e.SetBeforeExecute(func(name string) {
		if name != "opt" {
			return
		}
		if err := os.WriteFile(shard, nil, 0o644); err != nil {
			panic(fmt.Sprintf("cannot block the opt entry's shard: %v", err))
		}
	})
	res, err := e.Run(cfg)
	if err == nil || res != nil {
		t.Fatalf("run over a store that cannot take the opt entry: result %v, error %v; want an error", res != nil, err)
	}
	if !errors.Is(err, syscall.ENOTDIR) || !strings.HasPrefix(err.Error(), "castore: put: ") {
		t.Errorf("run error %q, want castore's put error wrapping ENOTDIR", err)
	}
	for _, name := range []string{"route", "signoff", "power", "report"} {
		if _, err := os.Stat(entryPath(t, e, cfg, name)); err == nil {
			t.Errorf("%s was stored after the opt entry failed", name)
		}
	}
	noGoroutineLeft(t, base)
	e.SetBeforeExecute(nil)

	if err := os.Remove(shard); err != nil {
		t.Fatal(err)
	}
	got, _ := stagedRun(t, e, cfg)
	mustEqual(t, "after the store recovered", mono, got)
	mustStore(t, e, cfg, cachedNames()...)
	noGoroutineLeft(t, base)
}

// An artifact executed after Run returned — a warm run's first
// Implementation call over a store that lost its signoff entry — is stored
// by that call before it returns, not by a writer left behind by the run.
func TestImplementationStoresSignoff(t *testing.T) {
	cfg := testConfig()
	mono := monoRun(t, cfg)
	dir := t.TempDir()
	primed, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primed.Run(cfg); err != nil {
		t.Fatal(err)
	}
	removeEntries(t, primed, cfg, "signoff")
	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); !reflect.DeepEqual(c, map[string]Counters{"report": {DiskHits: 1}}) {
		t.Fatalf("run counters = %+v, want the report's disk hit alone", c)
	}
	if _, _, err := res.Implementation(); err != nil {
		t.Fatal(err)
	}
	mustStore(t, e, cfg, "signoff")
	if c := e.Counters()["signoff"]; c.Executions != 1 {
		t.Errorf("signoff counters = %+v, want one execution by Implementation", c)
	}
	mustEqual(t, "lazy signoff", mono, capture(t, res))
}

// floatingSource is a stage-body hook that adds an inverter on an undriven
// net to the generated source: synthesis maps it, and the post-synth lint
// gate refuses the mapped netlist.
func floatingSource(n *flow.Node, exec func() (any, error)) (any, error) {
	v, err := exec()
	if n.Name == "generate" && err == nil {
		d := v.(*netlist.Design)
		d.AddInstance("floater", "INV", map[string]string{"A": "floating", "Z": "floater_out"}, "Z")
		d.AddPO("floater_out", "floater_out")
	}
	return v, err
}

// A synth artifact whose enforcing gate fails fails the engine run with the
// error flow's own execution returns for the same source, although the
// stages after synth went on while the gate checked. The artifact the gate
// refused is neither stored nor left in the memory tier, none of the run's
// later artifacts is either, and no goroutine outlives the run.
func TestEnforcedGateFailureNotKept(t *testing.T) {
	cfg := flow.Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.05}
	_, want := flow.NewExecution(cfg, floatingSource).Result(false)
	if want == nil || !strings.HasPrefix(want.Error(), "lint gate post-synth: ") {
		t.Fatalf("flow run of the floating source: %v, want the post-synth lint gate's error", want)
	}
	for _, c := range []struct {
		name string
		dir  func() string
	}{
		{"memory", func() string { return "" }},
		{"store", t.TempDir},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.dir())
			if err != nil {
				t.Fatal(err)
			}
			e.SetExecHook(floatingSource)
			base := runtime.NumGoroutine()
			res, err := e.Run(cfg)
			if err == nil || res != nil {
				t.Fatalf("engine run: result %v, error %v; want the gate's error", res != nil, err)
			}
			if err.Error() != want.Error() {
				t.Errorf("engine run error %q, want flow's %q", err, want)
			}
			noGoroutineLeft(t, base)
			for _, pe := range e.Plan(cfg) {
				switch {
				case !pe.Cached:
				case pe.Name == "wlm" && e.store != nil:
					mustStore(t, e, cfg, "wlm")
				case pe.Name != "wlm" && pe.Tier != "":
					t.Errorf("%s artifact kept in the %s tier after the post-synth gate failed", pe.Name, pe.Tier)
				}
			}
		})
	}
}

// Runs of one engine at once share its tiers: two sweep points run
// concurrently, each by a writer of its own, execute the shared upstream
// cone once, store every artifact, and match flow.Run.
func TestConcurrentRunsStore(t *testing.T) {
	base, err := circuits.TargetClockPs("FPU", tech.N45)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []flow.Config{testConfig(), testConfig()}
	cfgs[1].ClockPs = base * 1.15
	results := make([]*flow.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.Run(cfg)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("point %d: %v", i, errs[i])
		}
		mustStore(t, e, cfg, cachedNames()...)
		mustEqual(t, fmt.Sprintf("point %d", i), monoRun(t, cfg), capture(t, results[i]))
	}
	for _, name := range []string{"wlm", "synth", "place"} {
		if c := e.Counters()[name]; c.Executions != 1 {
			t.Errorf("%s counters = %+v, want one execution shared by both points", name, c)
		}
	}
}

// cachedNames lists the stage graph's cached nodes.
func cachedNames() []string {
	var out []string
	for i := range Nodes {
		if Nodes[i].Cached {
			out = append(out, Nodes[i].Name)
		}
	}
	return out
}

// entryPath returns the store path of the named node's artifact for cfg.
func entryPath(t *testing.T, e *Engine, cfg flow.Config, name string) string {
	t.Helper()
	for _, pe := range e.Plan(cfg) {
		if pe.Name == name {
			return e.store.EntryPath(storeKey(pe.Name, pe.ID))
		}
	}
	t.Fatalf("no stage %q", name)
	return ""
}

// mustStore requires the store to hold a decodable artifact for each named
// node of cfg.
func mustStore(t *testing.T, e *Engine, cfg flow.Config, names ...string) {
	t.Helper()
	for _, pe := range e.Plan(cfg) {
		if !slices.Contains(names, pe.Name) {
			continue
		}
		data, ok, err := e.store.Get(storeKey(pe.Name, pe.ID))
		if err != nil || !ok {
			t.Errorf("%s artifact is not in the store (%v)", pe.Name, err)
			continue
		}
		if _, err := node(t, pe.Name).Decode(data); err != nil {
			t.Errorf("stored %s artifact does not decode: %v", pe.Name, err)
		}
	}
}

// noGoroutineLeft waits for the process to be back to base goroutines: a
// writer that drained has exited, or is about to.
func noGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every artifact the engine persists decodes and re-encodes to identical
// bytes — the exact-inverse codec property artifact addressing depends on —
// in both the 2D and the T-MI flow.
func TestArtifactRoundTrip(t *testing.T) {
	for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := New(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Mode = mode
			if _, err := e.Run(cfg); err != nil {
				t.Fatal(err)
			}
			for _, pe := range e.Plan(cfg) {
				if !pe.Cached {
					continue
				}
				data, ok, err := e.store.Get(storeKey(pe.Name, pe.ID))
				if err != nil || !ok {
					t.Fatalf("%s artifact missing after run (%v)", pe.Name, err)
				}
				n := node(t, pe.Name)
				v, err := n.Decode(data)
				if err != nil {
					t.Fatalf("decode %s: %v", pe.Name, err)
				}
				again, err := n.Encode(v)
				if err != nil {
					t.Fatalf("re-encode %s: %v", pe.Name, err)
				}
				if !bytes.Equal(data, again) {
					t.Errorf("%s artifact is not a codec fixed point: re-encode diverges at byte %d (stored %d bytes, re-encoded %d)",
						pe.Name, firstDiff(data, again), len(data), len(again))
				}
			}
		})
	}
}

// firstDiff returns the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
