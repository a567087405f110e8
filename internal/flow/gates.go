package flow

import (
	"fmt"
	"time"

	"tmi3d/internal/equiv"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
)

// gateSet carries a flow run's design-integrity and formal sign-off gates
// (the Encounter sanity checks and the Conformal/Formality box of Fig 1):
// the subject, the enforce/warn/off modes, and the switch-level library
// check. The gates node builds one per run; each gating stage (synth, opt,
// signoff) forks it and packages the reports its fork accumulated into its
// artifact, and the report stage concatenates them in pipeline order.
type gateSet struct {
	subject   string
	lintMode  lint.GateMode
	equivMode lint.GateMode
	lib       *liberty.Library
	seed      uint64
	prof      *profile

	lintReports  []*lint.Report
	equivReports []*equiv.Report
	libCheck     *equiv.LibReport
}

// gates builds the stage-boundary gate set for this configuration. When the
// equivalence gate is on it runs (and under GateEnforce, enforces) the
// once-per-process switch-level library verification.
func (c Config) gates(lib *liberty.Library, seed uint64, prof *profile) (*gateSet, error) {
	g := &gateSet{
		subject:   fmt.Sprintf("%s/%v/%v", c.Circuit, c.Node, c.Mode),
		lintMode:  c.Lint,
		equivMode: c.Equiv,
		lib:       lib,
		seed:      seed,
		prof:      prof,
	}
	if c.Equiv != lint.GateOff {
		t0 := time.Now()
		g.libCheck = LibraryCheck()
		prof.add("equiv", time.Since(t0))
		if c.Equiv == lint.GateEnforce {
			if err := g.libCheck.Err(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// fork returns a copy of the gate set with no reports, for one gating stage
// to accumulate its own.
func (g *gateSet) fork() *gateSet {
	f := *g
	f.lintReports, f.equivReports = nil, nil
	return &f
}

// checkLint runs the design-integrity gate at one stage boundary.
func (g *gateSet) checkLint(stage string, d *netlist.Design) error {
	if g.lintMode == lint.GateOff {
		return nil
	}
	g0 := time.Now()
	defer func() { g.prof.add("lint", time.Since(g0)) }()
	rep := lint.CheckDesign(d, lint.DesignOptions{Lib: g.lib})
	rep.Subject = fmt.Sprintf("%s %s", g.subject, stage)
	g.lintReports = append(g.lintReports, rep)
	if g.lintMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("lint gate %s: %w", stage, err)
		}
	}
	return nil
}

// checkEquiv proves d preserves ref's logic at one stage boundary.
func (g *gateSet) checkEquiv(stage string, ref, d *netlist.Design) error {
	if g.equivMode == lint.GateOff {
		return nil
	}
	g0 := time.Now()
	defer func() { g.prof.add("equiv", time.Since(g0)) }()
	rep, err := equiv.Check(ref, d, equiv.Options{Seed: g.seed})
	if err != nil {
		return fmt.Errorf("equiv gate %s: %w", stage, err)
	}
	rep.Subject = fmt.Sprintf("%s %s", g.subject, stage)
	g.equivReports = append(g.equivReports, rep)
	if g.equivMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("equiv gate %s: %w", stage, err)
		}
	}
	return nil
}
