package flow

import (
	"fmt"
	"time"

	"tmi3d/internal/captable"
	"tmi3d/internal/circuits"
	"tmi3d/internal/equiv"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// This file holds the twelve stage bodies of the Nodes table. Each body is
// the whole of its stage: its Config carries only its StageKeys fields (the
// executor zeroes the rest), and everything else it consumes comes through
// in — its node's Deps, which feed its artifact ID.

// runSetup derives the per-run constants.
func runSetup(cfg Config, in *inputs) (any, error) {
	return &setupValue{
		// Every random decision downstream draws from a stream derived purely
		// from the configuration, never from scheduling order — the
		// determinism contract that lets the experiment engine run flows in
		// parallel and still produce bit-identical reports.
		seed:  cfg.DeriveSeed(),
		calib: clockCalibrationFactor(cfg.Circuit, cfg.Node),
		res:   cfg.ResistivityScale,
	}, nil
}

// runLibrary selects the technology and cell library.
func runLibrary(cfg Config, in *inputs) (any, error) {
	t0 := time.Now()
	t, lib, err := cfg.Library()
	if err != nil {
		return nil, err
	}
	in.prof.add("library", time.Since(t0))
	return &libraryValue{tech: t, lib: lib}, nil
}

// runGenerate produces the generic source netlist.
func runGenerate(cfg Config, in *inputs) (any, error) {
	t0 := time.Now()
	d, _, err := cfg.GenerateDesign()
	if err != nil {
		return nil, err
	}
	in.prof.add("generate", time.Since(t0))
	return d, nil
}

// runWLM builds the wire load model for this mode (or the 2D model under
// Use2DWLM — the "-n" rows of Table 15), sized from the generic netlist's
// estimated die area, and resolves the target utilization.
func runWLM(cfg Config, in *inputs) (any, error) {
	lib, d := in.library(), in.generate()
	if in.err != nil {
		return nil, in.err
	}
	util := cfg.Util
	if util == 0 {
		util = circuits.TargetUtilization(cfg.Circuit)
	}
	wlmMode := cfg.Mode
	if cfg.Use2DWLM {
		wlmMode = tech.Mode2D
	}
	model := wlm.BuildForMode(cfg.Node, wlmMode, estimateArea(d, lib.lib)/util)
	return &wlmArtifact{Model: model, Util: util}, nil
}

// runGates configures the design-integrity and formal sign-off gates run at
// the stage boundaries where the paper's flow runs Encounter sanity checks
// and Conformal/Formality compares; see gateSet.
func runGates(cfg Config, in *inputs) (any, error) {
	s, lib := in.setup(), in.library()
	if in.err != nil {
		return nil, in.err
	}
	gs, err := cfg.gates(lib.lib, s.seed, in.prof)
	if err != nil {
		return nil, err
	}
	return gs, nil
}

// runSynth maps the source netlist onto the library under the wire load
// model and runs the post-synth gates. synth.Run leaves its source untouched.
func runSynth(cfg Config, in *inputs) (any, error) {
	lib, src, w, gates := in.library(), in.generate(), in.wlm(), in.gates()
	if in.err != nil {
		return nil, in.err
	}
	gs := gates.fork()
	t0 := time.Now()
	sres, err := synth.Run(src, synth.Options{Lib: lib.lib, WLM: w.Model})
	if err != nil {
		return nil, fmt.Errorf("flow %s: synth: %w", gs.subject, err)
	}
	d := sres.Design
	in.prof.add("synth", time.Since(t0))
	if err := gs.checkLint("post-synth", d); err != nil {
		return nil, err
	}
	if err := gs.checkEquiv("post-synth vs source", src, d); err != nil {
		return nil, err
	}
	return &synthArtifact{Design: d, Stats: sres.Stats, Lint: gs.lintReports, Equiv: gs.equivReports}, nil
}

// runPlace places the mapped netlist, which place.Run leaves untouched. It
// reserves headroom for optimization growth (buffers, upsizing) so the FINAL
// utilization lands near the target, as the paper's flow does (Section S6
// reports post-optimization utilizations at the target). Placement is
// deterministic and draws no random numbers, so it reads no setup value;
// setup stays in its Deps because setup's ID feeds the place artifact's ID.
func runPlace(cfg Config, in *inputs) (any, error) {
	lib, w, sa := in.library(), in.wlm(), in.synth()
	if in.err != nil {
		return nil, in.err
	}
	t0 := time.Now()
	pl, err := place.Run(sa.Design, place.Options{Lib: lib.lib, Tech: lib.tech, TargetUtil: w.Util * 0.90})
	if err != nil {
		return nil, err
	}
	in.prof.add("place", time.Since(t0))
	return &placeArtifact{Snap: pl.Snapshot()}, nil
}

// runOpt runs pre-route optimization on bounding-box parasitics plus the
// post-place gates. From here on the flow targets the sweep clock: the
// ClockPs override steers optimization, sign-off and power while the
// artifacts above stay clock-independent.
func runOpt(cfg Config, in *inputs) (any, error) {
	s, lib, gates, sa, pa := in.setup(), in.library(), in.gates(), in.synth(), in.place()
	if in.err != nil {
		return nil, in.err
	}
	gs := gates.fork()
	// Optimization mutates the netlist; the synth artifact stays the
	// immutable post-synth reference.
	d := sa.Design.Clone()
	pl := pa.Snap.Restore(d)
	if cfg.ClockPs != 0 {
		d.TargetClockPs = cfg.ClockPs * s.calib
	}
	tb := captable.Build(lib.tech, captable.Options{ResistivityScale: cfg.ResistivityScale})
	t0 := time.Now()
	preStats, err := opt.Close(d, opt.Options{
		Lib: lib.lib, Wire: hpwlWire(pl, tb), Placement: pl, MaxRounds: 8, AreaBudget: pl.Die.Area() * 0.95,
	})
	if err != nil {
		return nil, err
	}
	in.prof.add("opt", time.Since(t0))
	if err := gs.checkLint("post-place", d); err != nil {
		return nil, err
	}
	if err := gs.checkEquiv("post-place vs post-synth", sa.Design, d); err != nil {
		return nil, err
	}
	return &optArtifact{Design: d, Snap: pl.Snapshot(), PreStats: preStats, Lint: gs.lintReports, Equiv: gs.equivReports}, nil
}

// runRoute globally routes the pre-route-closed placement. It reads no
// setup value; setup stays in its Deps because setup's ID feeds the route
// artifact's ID (TestArtifactIDsGolden pins it).
func runRoute(cfg Config, in *inputs) (any, error) {
	lib, oa := in.library(), in.opt()
	if in.err != nil {
		return nil, in.err
	}
	t0 := time.Now()
	rt, err := route.Run(oa.Snap.Restore(oa.Design), route.Options{Tech: lib.tech})
	if err != nil {
		return nil, err
	}
	in.prof.add("route", time.Since(t0))
	return &routeArtifact{Route: rt}, nil
}

// runSignoff runs post-route optimization on the route's extracted
// parasitics (power recovery on), then converges sign-off: final route,
// extraction and timing, with ECO-style re-closing on residual violations.
// Post-route closure is one stage with sign-off because it is keyed by the
// first route's parasitics.
func runSignoff(cfg Config, in *inputs) (any, error) {
	s, lib, gates, oa, ra := in.setup(), in.library(), in.gates(), in.opt(), in.route()
	if in.err != nil {
		return nil, in.err
	}
	gs := gates.fork()
	// Post-route optimization mutates the netlist; the opt artifact stays the
	// immutable post-place reference.
	d := oa.Design.Clone()
	pl := oa.Snap.Restore(d)
	tb := captable.Build(lib.tech, captable.Options{ResistivityScale: s.res})
	areaBudget := pl.Die.Area() * 0.95
	t0 := time.Now()
	postSrc := extractedWire(rcx.Extract(ra.Route, tb, lib.tech), pl, tb)
	stats, err := opt.Close(d, opt.Options{
		Lib: lib.lib, Wire: postSrc.fn, Placement: pl, MaxRounds: 8, PowerRecovery: true,
		NetChanged: postSrc.markDirty, AreaBudget: areaBudget,
	})
	if err != nil {
		return nil, err
	}
	in.prof.add("opt", time.Since(t0))
	stats.Upsized += oa.PreStats.Upsized
	stats.BuffersAdd += oa.PreStats.BuffersAdd
	stats.Downsized += oa.PreStats.Downsized
	rt, timing, err := converge(d, pl, tb, lib, areaBudget, stats, in.prof)
	if err != nil {
		return nil, err
	}
	if err := gs.checkLint("post-route", d); err != nil {
		return nil, err
	}
	if err := gs.checkEquiv("post-route vs post-place", oa.Design, d); err != nil {
		return nil, err
	}
	return &signoffArtifact{
		Design: d, Snap: pl.Snapshot(), Route: rt, Timing: timing,
		Stats: stats, Lint: gs.lintReports, Equiv: gs.equivReports,
	}, nil
}

// converge closes final routing, extraction, and sign-off timing. Buffers
// moved nets around, so it re-routes, re-extracts, and analyzes; if the
// re-routed parasitics uncover a residual violation it closes once more on
// the final extraction (ECO-style) and re-routes, up to three passes. ECO fix
// counts accumulate into stats.
func converge(d *netlist.Design, pl *place.Placement, tb *captable.Table, lib *libraryValue, areaBudget float64, stats *opt.Stats, prof *profile) (*route.Result, *sta.Result, error) {
	for pass := 0; ; pass++ {
		rt, wire, timing, err := signoffPass(d, pl, tb, lib, prof)
		if err != nil {
			return nil, nil, err
		}
		if timing.Met() || pass >= 2 {
			return rt, timing, nil
		}
		t0 := time.Now()
		eco, err := opt.Close(d, opt.Options{
			Lib: lib.lib, Wire: wire, Placement: pl, MaxRounds: 6, SkipDRV: true,
			AreaBudget: areaBudget,
		})
		if err != nil {
			return nil, nil, err
		}
		prof.add("opt", time.Since(t0))
		stats.Upsized += eco.Upsized
		stats.BuffersAdd += eco.BuffersAdd
	}
}

// runPower computes the sign-off power report with the clock tree
// (signoffPower) on the parasitics sign-off timed with.
func runPower(cfg Config, in *inputs) (any, error) {
	s, lib, sg := in.setup(), in.library(), in.signoff()
	if in.err != nil {
		return nil, in.err
	}
	d := sg.Design
	pl := sg.Snap.Restore(d)
	tb := captable.Build(lib.tech, captable.Options{ResistivityScale: s.res})
	// Nothing is re-optimized after sign-off's last route, so the wire
	// function rebuilt from its extraction is the one sign-off timed.
	wire := extractedWire(rcx.Extract(sg.Route, tb, lib.tech), pl, tb).fn
	pow, clk, err := signoffPower(d, pl, tb, lib, cfg.Activities, wire, sg.Timing, in.prof)
	if err != nil {
		return nil, err
	}
	return &powerArtifact{Power: pow, Clock: clk}, nil
}

// runReport assembles the Result's wire form from the final artifacts;
// Execution.Result attaches the netlist, placement and profile.
func runReport(cfg Config, in *inputs) (any, error) {
	res := &Result{Config: cfg}
	// Take only the statistics and gate reports from the synth and opt
	// artifacts, and read them before sign-off: their netlists are then free
	// to go while sign-off runs. Reports concatenate in check order
	// (post-synth, post-place, post-route); all-nil stays nil, so a gates-off
	// run omits them.
	if sa, oa := in.synth(), in.opt(); in.err == nil {
		res.SynthStats = sa.Stats
		res.LintReports = append(append([]*lint.Report(nil), sa.Lint...), oa.Lint...)
		res.EquivReports = append(append([]*equiv.Report(nil), sa.Equiv...), oa.Equiv...)
	}
	lib, gates, sg, pw := in.library(), in.gates(), in.signoff(), in.power()
	if in.err != nil {
		return nil, in.err
	}
	res.LintReports = append(res.LintReports, sg.Lint...)
	res.EquivReports = append(res.EquivReports, sg.Equiv...)
	res.LibCheck = gates.libCheck
	res.physical(lib.lib, sg.Design, sg.Snap.Die, sg.Route, sg.Timing, pw.Power, pw.Clock)
	res.OptStats = sg.Stats
	return res, nil
}

// Normalized returns the config with defaulted fields resolved (Scale 0 →
// 1.0) — the form an Execution runs and reports, and the staged engine keys
// artifacts on, so `scale 0` and `scale 1` share them.
func (c Config) Normalized() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// Library returns the technology and the (possibly pin-cap-scaled) cell
// library for this configuration.
func (c Config) Library() (*tech.Technology, *liberty.Library, error) {
	t := tech.New(c.Node, c.Mode)
	lib, err := liberty.Default(c.Node, c.Mode)
	if err != nil {
		return nil, nil, err
	}
	if c.PinCapScale != 0 && c.PinCapScale != 1 {
		lib = lib.ScalePinCap(c.PinCapScale)
	}
	return t, lib, nil
}

// GenerateDesign returns a fresh clone of the process-cached generated
// netlist, carrying the calibrated base (Table 12) target clock, and the
// calibration factor.
func (c Config) GenerateDesign() (*netlist.Design, float64, error) {
	src, err := generated(c.Circuit, c.Scale)
	if err != nil {
		return nil, 0, err
	}
	d := src.Clone()
	// Synthesis and placement always target the base (Table 12) clock; a
	// ClockPs sweep override is applied at the opt stage, so every sweep
	// point shares its generate/synth/place artifacts (and its RNG stream —
	// see DeriveSeed).
	baseClock, err := circuits.TargetClockPs(c.Circuit, c.Node)
	if err != nil {
		return nil, 0, err
	}
	calib := clockCalibrationFactor(c.Circuit, c.Node)
	d.TargetClockPs = baseClock * calib
	return d, calib, nil
}
