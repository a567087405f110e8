package tmi3d_test

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// The allocation guards pin the per-run allocation counts of the two
// sign-off gates and the three hot layout kernels on one small fixed
// synthesized design. Both gates read cell templates from the shared cellgen
// table and walk the netlist with per-design buffers, so their counts track
// compare points and findings, not instances; a regression that rebuilds
// templates or name strings per instance multiplies them by the design size.
// sta.Analyze compiles the design into flat presized tables once per call
// and place.Run refines every region in engine-owned arrays, so their counts
// track timing levels and bisection regions, not pins. Each bound is about
// twice the measured count unless its test says otherwise.

func signoffDesign(t *testing.T) (lib *liberty.Library, generic, mapped *netlist.Design) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	d, err := circuits.Generate("FPU", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	return lib, d, sr.Design
}

func TestEquivCheckAllocs(t *testing.T) {
	_, d, s := signoffDesign(t)
	got := testing.AllocsPerRun(3, func() {
		if _, err := equiv.Check(d, s, equiv.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 1900
	t.Logf("equiv.Check, FPU %d vs %d instances: %.0f allocs/run", len(d.Instances), len(s.Instances), got)
	if got > bound {
		t.Errorf("equiv.Check allocates %.0f times per run, bound %d", got, bound)
	}
}

func TestLintCheckDesignAllocs(t *testing.T) {
	lib, _, s := signoffDesign(t)
	got := testing.AllocsPerRun(3, func() { lint.CheckDesign(s, lint.DesignOptions{Lib: lib}) })
	const bound = 470
	t.Logf("lint.CheckDesign, FPU %d instances: %.0f allocs/run", len(s.Instances), got)
	if got > bound {
		t.Errorf("lint.CheckDesign allocates %.0f times per run, bound %d", got, bound)
	}
}

func TestStaAnalyzeAllocs(t *testing.T) {
	lib, _, s := signoffDesign(t)
	pl, err := place.Run(s, place.Options{Lib: lib, Tech: tech.New(tech.N45, tech.Mode2D)})
	if err != nil {
		t.Fatal(err)
	}
	env := sta.Env{Lib: lib, Wire: func(ni int) sta.WireRC {
		l := pl.NetHPWL(ni)
		return sta.WireRC{R: 2 * l, C: 0.2 * l}
	}}
	got := testing.AllocsPerRun(3, func() {
		if _, err := sta.Analyze(s, env); err != nil {
			t.Fatal(err)
		}
	})
	// 128 allocs/run; the map-walking levelizer it replaced made 6851.
	const bound = 260
	t.Logf("sta.Analyze, FPU %d instances: %.0f allocs/run", len(s.Instances), got)
	if got > bound {
		t.Errorf("sta.Analyze allocates %.0f times per run, bound %d", got, bound)
	}
}

func TestPlaceRunAllocs(t *testing.T) {
	lib, _, s := signoffDesign(t)
	opts := place.Options{Lib: lib, Tech: tech.New(tech.N45, tech.Mode2D)}
	got := testing.AllocsPerRun(3, func() {
		if _, err := place.Run(s, opts); err != nil {
			t.Fatal(err)
		}
	})
	// 2604 allocs/run; per-region maps and pin slices made 272772.
	const bound = 5200
	t.Logf("place.Run, FPU %d instances: %.0f allocs/run", len(s.Instances), got)
	if got > bound {
		t.Errorf("place.Run allocates %.0f times per run, bound %d", got, bound)
	}
}

func TestRouteRunAllocs(t *testing.T) {
	lib, _, s := signoffDesign(t)
	tt := tech.New(tech.N45, tech.Mode2D)
	pl, err := place.Run(s, place.Options{Lib: lib, Tech: tt})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := route.Run(pl, route.Options{Tech: tt}); err != nil {
			t.Fatal(err)
		}
	})
	// 37754 allocs/run; the per-net overlay maps it replaced made 39125 (on
	// this small design most nets stay inside one gcell and never needed
	// one). The bound is about 1.1x, so a per-net copy of the usage grid
	// lands well above it.
	const bound = 41500
	t.Logf("route.Run, FPU %d instances: %.0f allocs/run", len(s.Instances), got)
	if got > bound {
		t.Errorf("route.Run allocates %.0f times per run, bound %d", got, bound)
	}
}

// One whole flow through the stage-graph executor, FPU@0.1 T-MI on one
// worker. The bound is tight (about 1.1x, not 2x): an executor that clones
// the netlist per consuming stage instead of only where a stage mutates it
// (generate, opt, signoff) lands well above it. Measured on the 2-core bench
// machine: 102k allocs/run for the monolithic flow.Run this executor
// replaced, 137k for the staged engine's in-process path it replaced.
func TestFlowRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := flow.Config{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.ModeTMI}
	if _, err := flow.Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := flow.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 112000
	t.Logf("flow.Run, FPU@0.1 T-MI: %.0f allocs/run", got)
	if got > bound {
		t.Errorf("flow.Run allocates %.0f times per run, bound %d", got, bound)
	}
}
