// Package vet is a from-scratch static-analysis engine for the repository's
// determinism and concurrency contracts, built directly on go/ast, go/parser
// and go/types — no external analysis frameworks, matching the repo's
// hand-rolled CDCL and hand-rolled Prometheus ethos.
//
// The serving contract is byte identity: a daemon response must equal the
// canonical encoding of a direct flow.Run. Every production bug so far has
// been a statically detectable violation of it, and each analyzer targets one
// of those bug classes:
//
//   - maporder: range over a map in a deterministic-output package (the
//     netlist.AddInstance pin-order bug of PR 4), including the
//     order-dependent float-summation variant.
//   - lockorder: cycles in the interprocedural mutex acquisition graph (the
//     serve job-table / metrics-registry AB-BA inversion of PR 4).
//   - seedpurity: wall-clock or global-RNG inputs inside flow-deterministic
//     packages, which must derive randomness from flow.Config.DeriveSeed.
//   - keycoverage: flow.Config fields missing from Config.Key (the ClockPs
//     precision collision that poisoned the flow cache in PR 3), and drift
//     between Key and the DeriveSeed physical-key subset.
//   - stagedeps: per-stage Config read sets of the anchored flow stage bodies
//     diffed against the declarative StageKeys manifest — the soundness proof
//     for the staged engine's per-stage cache keys: a stage that reads a
//     Config field its key omits would serve stale cached artifacts.
//   - globalmut: reads or writes of mutable package-level state outside the
//     key-addressed sync.Once cache shape (liberty.Default, flow.generated) —
//     the class where a cache entry mutated after publication silently
//     couples two configs.
//   - parsafe: per-iteration effect sets of the //tmi3dvet:parloop-anchored
//     hot loops slated for intra-flow parallelism (ROADMAP item 3), reporting
//     every cross-iteration hazard — shared writes, non-iteration-keyed
//     aliasing, order-dependent float reductions, in-loop RNG draws,
//     append-collected results — before any goroutine exists to race.
//   - godisc: goroutine discipline at existing go/defer sites — stale
//     captures, WaitGroup.Add placement, send-without-receive leak shapes,
//     unlocked shared writes in spawned closures, unbounded per-element
//     spawns.
//   - wiresafe: wire-format totality over the flow.WireTypes manifest —
//     every type whose encoded bytes cross a process boundary has its struct
//     fields diffed against what its codec pair actually reads and writes
//     (silent-drop fields, decoder-invented fields, asymmetric pairs,
//     unaudited off-wire fields, raw non-finite floats) — the soundness
//     proof for shipping artifacts between nodes (ROADMAP item 2).
//   - ctxdisc: cancellation and resource discipline in the serving/store/
//     engine packages a fleet amplifies — goroutines no drain can reach,
//     dropped contexts, timer leaks, handles not closed on every path
//     (branch-sensitive through the err-check idiom), and blocking I/O
//     while holding a mutex.
//
// cmd/tmi3dvet runs the suite over the whole module; scripts/check.sh gates
// CI on a clean report.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the full analyzer suite in reporting order.
var All = []*Analyzer{MapOrder, LockOrder, SeedPurity, KeyCoverage, StageDeps, GlobalMut, ParSafe, GoDisc, WireSafe, CtxDisc}

// deterministicPkgs lists the module-relative package paths whose output
// feeds the byte-identity contract: any map-iteration order or impure seed
// inside them shows up as cross-process result divergence. flow itself is
// excluded — its time.Now calls feed the observational StageTimes profile,
// which is deliberately outside the encoded Result.
var deterministicPkgs = []string{
	"internal/netlist",
	"internal/place",
	"internal/route",
	"internal/cts",
	"internal/opt",
	"internal/power",
	"internal/sta",
	"internal/extract",
	"internal/rcx",
	"internal/liberty",
	"internal/report",
}

// Deterministic reports whether the import path carries the byte-identity
// contract (module-relative suffix match against deterministicPkgs).
func Deterministic(importPath string) bool {
	return pathIn(importPath, deterministicPkgs)
}

// globalStatePkgs extends the deterministic set with the flow package itself
// for globalmut: flow owns the cross-config process caches (genCache, the
// library-check once) whose mutation-after-publication is exactly the bug
// class globalmut targets, even though flow's wall-clock StageTimes keep it
// out of the seedpurity/maporder set. The staged engine rides along for the
// same reason — its artifact caches publish decoded artifacts across runs —
// while its stage profiling (time.Now) keeps it out of the seedpurity set.
var globalStatePkgs = append([]string{"internal/flow", "internal/stage"}, deterministicPkgs...)

// GlobalStateScoped reports whether globalmut audits the package's
// package-level state.
func GlobalStateScoped(importPath string) bool {
	return pathIn(importPath, globalStatePkgs)
}

// ctxPkgs lists the packages ctxdisc polices: the serving daemon, the
// persistent store, the staged engine, and the load harness — the four
// surfaces ROADMAP item 2 multiplies across a node fleet, where an orphan
// goroutine, a leaked handle, or lock-held I/O scales from an annoyance to
// an outage.
var ctxPkgs = []string{
	"internal/serve",
	"internal/castore",
	"internal/stage",
	"cmd/loadgen",
}

// CtxScoped reports whether ctxdisc audits the package's cancellation and
// resource discipline.
func CtxScoped(importPath string) bool {
	return pathIn(importPath, ctxPkgs)
}

func pathIn(importPath string, set []string) bool {
	for _, s := range set {
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, positioned with a root-relative filename.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass is one (analyzer, package) invocation.
type Pass struct {
	Mod *Module
	Pkg *Package
	// Deterministic marks packages under the byte-identity contract; maporder
	// and seedpurity only fire inside them.
	Deterministic bool

	check         string
	anchor        string // parsafe loop-name filter (Options.Anchor); "" = all
	report        func(Diagnostic)
	exportStage   func(StageReads)
	exportParLoop func(ParLoop)
	exportParEnt  func(parEntry)
	exportWire    func(WireFact)
}

// ExportStage publishes one computed stage read set (stagedeps). It is a
// no-op when the runner did not ask for stage facts.
func (p *Pass) ExportStage(sr StageReads) {
	if p.exportStage != nil {
		p.exportStage(sr)
	}
}

// ExportParLoop publishes one analyzed anchored loop (parsafe).
func (p *Pass) ExportParLoop(pl ParLoop) {
	if p.exportParLoop != nil {
		p.exportParLoop(pl)
	}
}

func (p *Pass) exportParEntry(e parEntry) {
	if p.exportParEnt != nil {
		p.exportParEnt(e)
	}
}

// ExportWire publishes one proven wire-type fact (wiresafe).
func (p *Pass) ExportWire(wf WireFact) {
	if p.exportWire != nil {
		p.exportWire(wf)
	}
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Mod.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjectOf resolves an identifier to its use or definition object.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// ExprString renders an expression as compact source text — for diagnostics
// only, so parenthesization fidelity does not matter.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "(…)"
	case *ast.BasicLit:
		return e.Value
	default:
		return "expr"
	}
}

// Result is one full analysis over a module: the findings plus the stage
// facts stagedeps computed along the way (the measured per-stage dependency
// surface the incremental flow cache will consume) and the anchored-loop
// effect sets parsafe computed (the parallelism green board of ROADMAP
// item 3).
type Result struct {
	Diags    []Diagnostic
	Stages   []StageReads
	ParLoops []ParLoop
	// WireTypes is the proven wire surface: one fact per flow.WireTypes
	// manifest entry, recording the codec kind and which fields round-trip
	// versus which are audited off the wire (wiresafe).
	WireTypes []WireFact
}

// Options narrows an Analyze run for fast iteration on one package or loop.
type Options struct {
	// Analyzers to run; nil means All.
	Analyzers []*Analyzer
	// PkgFilter restricts analysis to packages whose import path contains the
	// substring. Module-wide reconciliation (the ParLoops manifest diff) is
	// skipped under any filter — a partial view cannot judge completeness.
	PkgFilter string
	// Anchor restricts parsafe to the named //tmi3dvet:parloop loop.
	Anchor string
}

// Run applies the analyzers to every package of the module and returns the
// findings sorted by position. The order is deterministic — the engine holds
// itself to the contract it enforces.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	return Analyze(mod, analyzers).Diags
}

// Analyze is Run plus the exported stage read sets and anchored-loop effect
// sets, all deterministically sorted.
func Analyze(mod *Module, analyzers []*Analyzer) *Result {
	return AnalyzeOpts(mod, Options{Analyzers: analyzers})
}

// AnalyzeOpts is Analyze with package/anchor filtering.
func AnalyzeOpts(mod *Module, opts Options) *Result {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All
	}
	res := &Result{}
	var entries []parEntry
	for _, pkg := range mod.Pkgs {
		if opts.PkgFilter != "" && !strings.Contains(pkg.Path, opts.PkgFilter) {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Mod:           mod,
				Pkg:           pkg,
				Deterministic: Deterministic(pkg.Path),
				check:         a.Name,
				anchor:        opts.Anchor,
				report:        func(d Diagnostic) { res.Diags = append(res.Diags, d) },
				exportStage:   func(sr StageReads) { res.Stages = append(res.Stages, sr) },
				exportParLoop: func(pl ParLoop) { res.ParLoops = append(res.ParLoops, pl) },
				exportParEnt:  func(e parEntry) { entries = append(entries, e) },
				exportWire:    func(wf WireFact) { res.WireTypes = append(res.WireTypes, wf) },
			}
			a.Run(pass)
		}
	}
	if opts.PkgFilter == "" && opts.Anchor == "" {
		reconcileParLoops(res, entries)
	}
	sort.Slice(res.ParLoops, func(i, j int) bool {
		a, b := res.ParLoops[i], res.ParLoops[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Line < b.Line
	})
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	sort.Slice(res.Stages, func(i, j int) bool {
		a, b := res.Stages[i], res.Stages[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Stage < b.Stage
	})
	sort.Slice(res.WireTypes, func(i, j int) bool {
		return res.WireTypes[i].Type < res.WireTypes[j].Type
	})
	return res
}
