package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

// cacheSnapshot encodes every value the process caches publish to the flows
// in this test: the four default libraries, the generated netlist, the
// library check and the shared cell templates.
func cacheSnapshot(t *testing.T) map[string][]byte {
	t.Helper()
	snap := map[string][]byte{}
	for _, node := range []tech.Node{tech.N45, tech.N7} {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			lib, err := liberty.Default(node, mode)
			if err != nil {
				t.Fatal(err)
			}
			if snap[fmt.Sprintf("lib%v%v", node, mode)], err = lib.EncodeJSON(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := generated("FPU", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if snap["generated FPU@0.03"], err = json.Marshal(d); err != nil {
		t.Fatal(err)
	}
	if snap["LibraryCheck"], err = json.Marshal(LibraryCheck()); err != nil {
		t.Fatal(err)
	}
	for _, fn := range cellgen.Functions() {
		d, _ := cellgen.Lookup(fn)
		snap["cellgen.Lookup "+fn] = []byte(fmt.Sprintf("%+v", *d))
	}
	return snap
}

func encodeRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The process caches share libraries, netlists, the library check and the
// cell templates across every flow of a process. No flow may change a value
// another flow reads: after each of the flows below, which take every cache
// path (pin-cap scaling, T-MI+M with a clock override, the 2D wire load
// model and resistivity and activity overrides, 7 nm with warn-only gates),
// the published values are byte-identical, and the first flow re-runs to
// the same bytes, so a result does not depend on what ran before it.
func TestProcessCachesSurviveFlows(t *testing.T) {
	before := cacheSnapshot(t)
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	sort.Strings(names)
	a := Config{Circuit: "FPU", Scale: 0.03, Node: tech.N7, Mode: tech.ModeTMI}
	var first []byte
	for i, cfg := range []Config{
		a,
		{Circuit: "FPU", Scale: 0.03, Node: tech.N45, Mode: tech.Mode2D, PinCapScale: 0.5},
		{Circuit: "FPU", Scale: 0.03, Node: tech.N45, Mode: tech.ModeTMIM, ClockPs: 600, Use2DWLM: true,
			ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5},
			Activities:       power.Activities{PrimaryInput: 0.3, SeqOutput: 0.2}},
		{Circuit: "FPU", Scale: 0.03, Node: tech.N7, Mode: tech.Mode2D, Equiv: lint.GateWarnOnly, Util: 0.6},
	} {
		if b := encodeRun(t, cfg); i == 0 {
			first = b
		}
		after := cacheSnapshot(t)
		for _, name := range names {
			if !bytes.Equal(before[name], after[name]) {
				t.Errorf("%s changed while %s@%g %v %v ran", name, cfg.Circuit, cfg.Scale, cfg.Node, cfg.Mode)
			}
		}
	}
	if again := encodeRun(t, a); !bytes.Equal(first, again) {
		t.Errorf("%s@%g %v %v re-runs to different bytes after other flows", a.Circuit, a.Scale, a.Node, a.Mode)
	}
}
