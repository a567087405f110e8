package flow

// Concurrency and determinism tests for the flow-level shared caches: the
// canonical config key, the derived RNG seed, and the process-wide generated
// netlist / library-check caches that parallel experiment runs hammer.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

// Sweep points closer than any display rounding must keep distinct keys —
// the regression behind the old %.0f ClockPs cache key, which collided
// Fig 4-style points under 1 ps apart.
func TestConfigKeyPrecision(t *testing.T) {
	base := Config{Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI, ClockPs: 1000.0}
	near := base
	near.ClockPs = 1000.4
	if base.Key() == near.Key() {
		t.Fatalf("configs 0.4 ps apart share a key: %q", base.Key())
	}
	tiny := base
	tiny.PinCapScale = 1.0000001
	if base.Key() == tiny.Key() {
		t.Error("PinCapScale 1e-7 apart share a key")
	}
	util := base
	util.Util = 0.654321
	if base.Key() == util.Key() {
		t.Error("Util change not reflected in key")
	}
}

// configMutations changes one field of configBase each. Together with
// nonKeyFields they classify every field of Config: TestConfigKeyCoversFields
// fails on a field that is in neither, so a new field cannot reach the cache
// key (or miss it) without a decision.
var configMutations = map[string]func(*Config){
	"Circuit":          func(c *Config) { c.Circuit = "AES" },
	"Scale":            func(c *Config) { c.Scale = 0.31 },
	"Node":             func(c *Config) { c.Node = tech.N45 },
	"Mode":             func(c *Config) { c.Mode = tech.ModeTMI },
	"ClockPs":          func(c *Config) { c.ClockPs = 1234.5 },
	"Util":             func(c *Config) { c.Util = 0.7 },
	"PinCapScale":      func(c *Config) { c.PinCapScale = 0.8 },
	"ResistivityScale": func(c *Config) { c.ResistivityScale = map[tech.LayerClass]float64{tech.ClassM1: 0.5} },
	"Use2DWLM":         func(c *Config) { c.Use2DWLM = true },
	"Activities":       func(c *Config) { c.Activities = power.Activities{PrimaryInput: 0.2, SeqOutput: 0.3} },
	"Seed":             func(c *Config) { c.Seed = 99 },
	"Lint":             func(c *Config) { c.Lint = 2 },
	"Equiv":            func(c *Config) { c.Equiv = 2 },
}

var configBase = Config{Circuit: "DES", Scale: 0.3, Node: tech.N7, Mode: tech.Mode2D, Seed: 1}

// nonKeyFields are the Config fields Key deliberately ignores.
var nonKeyFields = map[string]string{
	"Workers": "ignored: no stage runs worker goroutines, so none uses its value",
}

// nonSeedFields are the keyed fields DeriveSeed deliberately leaves out.
var nonSeedFields = map[string]string{
	"ClockPs": "applied after placement: sweep points share the synth/place RNG stream, and with it their artifacts",
	"Lint":    "observation-only gate: must not perturb the RNG stream or the layout",
	"Equiv":   "observation-only gate: must not perturb the RNG stream or the layout",
}

// Every field of Config either moves the key or is listed as non-key; equal
// configs (including semantically equal maps) must agree on it.
func TestConfigKeyCoversFields(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		field := ct.Field(i).Name
		mutate, mutated := configMutations[field]
		_, nonKey := nonKeyFields[field]
		switch {
		case mutated && nonKey:
			t.Errorf("Config.%s is both mutated and listed as non-key", field)
		case nonKey:
			// Key ignores it by decision; nothing to mutate.
		case !mutated:
			t.Errorf("Config.%s is unclassified: add a mutation to configMutations (it must move Key) or list it in nonKeyFields with a reason", field)
		default:
			c := configBase
			mutate(&c)
			if c.Key() == configBase.Key() {
				t.Errorf("%s change does not change the key", field)
			}
		}
	}
	for field := range configMutations {
		if _, ok := ct.FieldByName(field); !ok {
			t.Errorf("configMutations names %s, which is not a field of Config", field)
		}
	}
	for field := range nonKeyFields {
		if _, ok := ct.FieldByName(field); !ok {
			t.Errorf("nonKeyFields names %s, which is not a field of Config", field)
		}
	}
	// Map identity must not matter, only contents.
	a, b := configBase, configBase
	a.ResistivityScale = map[tech.LayerClass]float64{tech.ClassM1: 0.5, tech.ClassLocal: 0.7}
	b.ResistivityScale = map[tech.LayerClass]float64{tech.ClassLocal: 0.7, tech.ClassM1: 0.5}
	if a.Key() != b.Key() {
		t.Error("equal ResistivityScale maps produce different keys")
	}
}

// The derived seed is a pure function of the physical config: stable across
// calls, and moved by exactly the keyed fields outside nonSeedFields — the
// gate modes must never move the layout, and clock-sweep points must share
// one RNG stream.
func TestDeriveSeed(t *testing.T) {
	if configBase.DeriveSeed() != configBase.DeriveSeed() {
		t.Fatal("DeriveSeed is not stable")
	}
	for field, mutate := range configMutations {
		c := configBase
		mutate(&c)
		_, nonSeed := nonSeedFields[field]
		if moved := c.DeriveSeed() != configBase.DeriveSeed(); moved == nonSeed {
			if nonSeed {
				t.Errorf("%s changed the derived seed; it is listed in nonSeedFields (%s)", field, nonSeedFields[field])
			} else {
				t.Errorf("%s change does not reach the derived seed: two keyed-apart configs share an RNG stream", field)
			}
		}
	}
	for field := range nonSeedFields {
		if _, ok := configMutations[field]; !ok {
			t.Errorf("nonSeedFields names %s, which has no key mutation", field)
		}
	}
}

// The generated-netlist cache must hand every concurrent caller of one key
// the same design exactly once, while distinct keys build independently.
func TestGeneratedConcurrent(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]map[string]interface{}, goroutines)
	keys := []struct {
		name  string
		scale float64
	}{{"FPU", 0.08}, {"DES", 0.08}, {"FPU", 0.09}}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := map[string]interface{}{}
			for _, k := range keys {
				d, err := generated(k.name, k.scale)
				if err != nil {
					t.Errorf("generated(%s, %v): %v", k.name, k.scale, err)
					return
				}
				got[fmt.Sprintf("%s@%v", k.name, k.scale)] = d
			}
			results[g] = got
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k, d := range results[0] {
			if results[g][k] != d {
				t.Fatalf("goroutine %d got a different %s design pointer", g, k)
			}
		}
	}
}

// The switch-level library verification is shared process-wide; concurrent
// callers must all see the one cached report.
func TestLibraryCheckConcurrent(t *testing.T) {
	const goroutines = 8
	reps := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reps[g] = LibraryCheck()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if reps[g] != reps[0] {
			t.Fatal("LibraryCheck returned different pointers")
		}
	}
}

// Every flow result carries its per-stage wall-clock profile, covering the
// pipeline from library to power.
func TestStageTimesPopulated(t *testing.T) {
	r := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1})
	if len(r.StageTimes) == 0 {
		t.Fatal("no stage times recorded")
	}
	seen := map[string]bool{}
	for _, st := range r.StageTimes {
		if st.D < 0 {
			t.Errorf("stage %s has negative duration %v", st.Stage, st.D)
		}
		if seen[st.Stage] {
			t.Errorf("stage %s listed twice", st.Stage)
		}
		seen[st.Stage] = true
	}
	for _, want := range []string{"library", "generate", "synth", "place", "opt", "route", "sta", "power"} {
		if !seen[want] {
			t.Errorf("stage %q missing from profile %v", want, stageNames(r.StageTimes))
		}
	}
}

func stageNames(sts []StageTime) string {
	names := make([]string, len(sts))
	for i, st := range sts {
		names[i] = st.Stage
	}
	return strings.Join(names, ",")
}
