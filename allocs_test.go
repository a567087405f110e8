package tmi3d_test

import (
	"runtime"
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
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
// sta.Timer compiles the design into flat presized tables once and patches
// them per edit, so opt.Close's count tracks its analyses, not pins or
// rounds; place.Run refines every region in engine-owned arrays, so its
// count tracks bisection regions; route.Run routes every net in
// router-owned scratch and carves the nets' segment slices from one arena,
// so its count is a handful of per-run tables. Each bound is about
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

// Closure with power recovery at the relaxed critical path: a timing round,
// downsizing rounds and the repair upsizing after them, about a dozen
// analyses. Max-cap buffering is skipped: each inserted buffer allocates its
// own netlist entries, and without it the count tracks the analyses. Close
// edits the netlist, so each run closes a fresh copy and only Close itself
// is counted.
func TestOptCloseAllocs(t *testing.T) {
	lib, _, s := signoffDesign(t)
	pl, err := place.Run(s, place.Options{Lib: lib, Tech: tech.New(tech.N45, tech.Mode2D)})
	if err != nil {
		t.Fatal(err)
	}
	snap := pl.Snapshot()
	hpwl := func(p *place.Placement) func(int) sta.WireRC {
		return func(ni int) sta.WireRC {
			l := p.NetHPWL(ni)
			return sta.WireRC{R: 2 * l, C: 0.2 * l}
		}
	}
	relaxed, err := sta.Analyze(s, sta.Env{Lib: lib, Wire: hpwl(pl)})
	if err != nil {
		t.Fatal(err)
	}
	clock := relaxed.ClockPs - relaxed.WNS
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	var mallocs uint64
	var st *opt.Stats
	for i := 0; i < runs; i++ {
		d := s.Clone()
		d.TargetClockPs = clock
		p := snap.Restore(d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err = opt.Close(d, opt.Options{Lib: lib, Wire: hpwl(p), Placement: p, MaxRounds: 8, PowerRecovery: true, SkipDRV: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	got := float64(mallocs) / runs
	// 67 allocs/run; compiling the timing graph per round, as sta.Analyze
	// does, made 267.
	const bound = 140
	t.Logf("opt.Close, FPU %d instances, %+v: %.0f allocs/run", len(s.Instances), *st, got)
	if got > bound {
		t.Errorf("opt.Close allocates %.0f times per run, bound %d", got, bound)
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
	// ~790 allocs/run; per-region maps and pin slices made 272772.
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
	// 49 allocs/run: the usage grid, the overlay, the segment arena and the
	// router's scratch, none of them per net. The router with per-net pin,
	// candidate, connection and segment slices and per-edge walk closures
	// made 37754. The bound is about 2x, so one allocation per routed net —
	// per-net scratch, a walk closure, a per-net copy of the usage grid —
	// lands far above it.
	const bound = 100
	t.Logf("route.Run, FPU %d instances: %.0f allocs/run", len(s.Instances), got)
	if got > bound {
		t.Errorf("route.Run allocates %.0f times per run, bound %d", got, bound)
	}
}

// One whole flow through the stage-graph executor, FPU@0.1 T-MI on one
// worker. The bound is tight (about 1.1x, not 2x): an executor that clones
// the netlist per consuming stage instead of only where a stage mutates it
// (generate, opt, signoff) lands well above it, and so does a Clone that
// allocates per instance. Measured on the 2-core bench machine: 27.4k
// allocs/run with pins as sorted slices and Clone's flat arenas; 53.0k with
// a pin map per instance; 98.6k before the flat router, 102k for the
// monolithic flow.Run this executor replaced, 137k for the staged engine's
// in-process path it replaced.
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
	const bound = 30000
	t.Logf("flow.Run, FPU@0.1 T-MI: %.0f allocs/run", got)
	if got > bound {
		t.Errorf("flow.Run allocates %.0f times per run, bound %d", got, bound)
	}
}
