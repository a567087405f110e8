package flow

import (
	"fmt"
	"runtime/debug"
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
// signoff) starts its gate pair through it beside the pipeline (start), and
// the report stage joins the pairs in pipeline order.
type gateSet struct {
	subject   string
	lintMode  lint.GateMode
	equivMode lint.GateMode
	lib       *liberty.Library
	seed      uint64
	prof      *profile

	libCheck *equiv.LibReport
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

// gatePair is one gating stage's gates running beside the pipeline: a
// goroutine of its own checks the design the stage built while the next
// stage, which reads only the netlist, goes on. It writes the reports into
// the stage's artifact (its Lint and Equiv fields) and into the pair, then
// closes done; nothing reads them before done closes.
type gatePair struct {
	done  chan struct{}
	lint  []*lint.Report
	equiv []*equiv.Report
	// err is the first failure of an enforcing gate, or a *gatePanic.
	err error
}

// gatePanic is a gate goroutine's panic, kept with the gate's stack for
// join to re-raise.
type gatePanic struct {
	value any
	stack []byte
}

func (p *gatePanic) Error() string {
	return fmt.Sprintf("flow: gate panicked: %v\n\ngate goroutine:\n%s", p.value, p.stack)
}

// goGates runs check on a goroutine of its own and returns its pair at once.
// A panic in check ends the goroutine normally; join re-raises it.
func goGates(check func(p *gatePair) error) *gatePair {
	p := &gatePair{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer func() {
			if v := recover(); v != nil {
				p.err = &gatePanic{value: v, stack: debug.Stack()}
			}
		}()
		p.err = check(p)
	}()
	return p
}

// wait blocks until the pair has finished and returns its failure, a gate's
// panic as a *gatePanic error.
func (p *gatePair) wait() error {
	<-p.done
	return p.err
}

// join is wait for the goroutine that runs the flow: a gate's panic is
// re-raised there, where the caller's recover (serve's per-job one) sees it.
func (p *gatePair) join() error {
	err := p.wait()
	if gp, ok := err.(*gatePanic); ok {
		panic(gp)
	}
	return err
}

// failed returns the pair's failure if it has finished, without waiting.
func (p *gatePair) failed() error {
	select {
	case <-p.done:
		return p.err
	default:
		return nil
	}
}

// gatedArtifact is the artifact of a gating stage: synth, opt or signoff.
type gatedArtifact interface {
	// checks returns the pair checking the artifact: the running pair of a
	// value its body just built, or a finished one holding its reports.
	checks() *gatePair
}

func (a *synthArtifact) checks() *gatePair   { return pairOf(a.gates, &a.Lint, &a.Equiv) }
func (a *optArtifact) checks() *gatePair     { return pairOf(a.gates, &a.Lint, &a.Equiv) }
func (a *signoffArtifact) checks() *gatePair { return pairOf(a.gates, &a.Lint, &a.Equiv) }

// pairOf returns an artifact's pair p or, for an artifact no gate is checking
// (a decoded one, or one built with both gates off), a finished pair holding
// the reports it has. It reads the reports only then: while p runs, its
// goroutine writes them.
func pairOf(p *gatePair, lints *[]*lint.Report, equivs *[]*equiv.Report) *gatePair {
	if p != nil {
		return p
	}
	return &gatePair{done: closedDone, lint: *lints, equiv: *equivs}
}

// closedDone is the done channel of a pair that finished before it was made.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait blocks until the gates checking v, a value of this node, have
// finished, and returns their failure; nil for a node without gates. A
// gate's panic comes back as an error, not re-raised: the stage engine's
// writer goroutine calls Wait before it stores an artifact.
func (n *Node) Wait(v any) error {
	if a, ok := v.(gatedArtifact); ok {
		return a.checks().wait()
	}
	return nil
}

// start begins the gate pair at one stage boundary, on d, the design the
// stage built: lint, then the equivalence of d with ref, its reference
// design (refStage names it). The reports go into *lints and *equivs, the
// stage's artifact's fields. With both gates off it starts nothing and
// returns nil.
func (g *gateSet) start(stage, refStage string, ref, d *netlist.Design, lints *[]*lint.Report, equivs *[]*equiv.Report) *gatePair {
	if g.lintMode == lint.GateOff && g.equivMode == lint.GateOff {
		return nil
	}
	// The profile lists stages in first-seen order: name the gates' stages
	// here, on the run's goroutine, so that order does not depend on when
	// the gates finish.
	if g.lintMode != lint.GateOff {
		g.prof.add("lint", 0)
	}
	if g.equivMode != lint.GateOff {
		g.prof.add("equiv", 0)
	}
	return goGates(func(p *gatePair) error {
		defer func() { *lints, *equivs = p.lint, p.equiv }()
		if err := g.checkLint(p, stage, d); err != nil {
			return err
		}
		return g.checkEquiv(p, stage+" vs "+refStage, ref, d)
	})
}

// checkLint runs the design-integrity gate at one stage boundary.
func (g *gateSet) checkLint(p *gatePair, stage string, d *netlist.Design) error {
	if g.lintMode == lint.GateOff {
		return nil
	}
	g0 := time.Now()
	defer func() { g.prof.add("lint", time.Since(g0)) }()
	rep := lint.CheckDesign(d, lint.DesignOptions{Lib: g.lib})
	rep.Subject = fmt.Sprintf("%s %s", g.subject, stage)
	p.lint = append(p.lint, rep)
	if g.lintMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("lint gate %s: %w", stage, err)
		}
	}
	return nil
}

// checkEquiv proves d preserves ref's logic at one stage boundary.
func (g *gateSet) checkEquiv(p *gatePair, stage string, ref, d *netlist.Design) error {
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
	p.equiv = append(p.equiv, rep)
	if g.equivMode == lint.GateEnforce {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("equiv gate %s: %w", stage, err)
		}
	}
	return nil
}
