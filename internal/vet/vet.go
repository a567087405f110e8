// Package vet is a from-scratch static-analysis engine for the repository's
// determinism contracts, built directly on go/ast, go/parser and
// go/types — no external analysis frameworks, matching the repo's
// hand-rolled CDCL and hand-rolled Prometheus ethos.
//
// The serving contract is byte identity: a daemon response must equal the
// canonical encoding of a direct flow.Run. Each analyzer targets one
// statically detectable class of violation of it:
//
//   - maporder: range over a map in a deterministic-output package (the
//     netlist.AddInstance pin-order bug of PR 4), including the
//     order-dependent float-summation variant.
//   - seedpurity: wall-clock or global-RNG inputs inside flow-deterministic
//     packages, which must derive randomness from flow.Config.DeriveSeed.
//
// Both defect classes can hide on a path no test runs, so they stay static.
// The other contracts are runtime tests, and the cache contracts also hold
// by construction:
//
//   - That flow.Config.Key and DeriveSeed cover the right fields: flow's
//     TestConfigKeyCoversFields and TestDeriveSeed, over every field.
//   - A stage's output depends only on its key: the executor hands each
//     stage body a Config with every field outside its StageKeys entry
//     zeroed (flow's TestStageBodiesSeeOnlyKeyFields).
//   - No flow changes a value the process caches share with another flow:
//     the caches publish through sync.OnceValues, and flow's
//     TestProcessCachesSurviveFlows checks the published values and the
//     history independence of a result.
//   - The wire contract (a decoded value equals the encoded one): flow's
//     TestWireFormatTotal round-trips every type the wire roots reach.
//   - Concurrency: flows are serial, serve's mutexes are leaf locks, and
//     each concurrency defect class has a runtime test under go test -race
//     (serve's slow-scrape, scrape-during-submit and goroutine-leak tests,
//     loadgen's body-close test, castore's handle test).
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
var All = []*Analyzer{MapOrder, SeedPurity}

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
	for _, s := range deterministicPkgs {
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

	check  string
	report func(Diagnostic)
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

// Run applies the analyzers to every package of the module and returns the
// findings sorted by position. The order is deterministic — the engine holds
// itself to the contract it enforces.
func Run(mod *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Mod:           mod,
				Pkg:           pkg,
				Deterministic: Deterministic(pkg.Path),
				check:         a.Name,
				report:        func(d Diagnostic) { diags = append(diags, d) },
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags
}
