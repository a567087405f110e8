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
//   - stagedeps: per-stage Config read sets of the flow.Nodes stage bodies
//     diffed against the declarative StageKeys manifest — the soundness proof
//     for the staged engine's per-stage cache keys: a stage that reads a
//     Config field its key omits would serve stale cached artifacts.
//   - globalmut: reads or writes of mutable package-level state outside the
//     key-addressed sync.Once cache shape (liberty.Default, flow.generated) —
//     the class where a cache entry mutated after publication silently
//     couples two configs.
//
// That flow.Config.Key and DeriveSeed cover the right fields is not an
// analyzer: flow's TestConfigKeyCoversFields and TestDeriveSeed check it over
// every field of the struct. Neither is the wire contract (a decoded value
// equals the encoded one): flow's TestWireFormatTotal round-trips every type
// the wire roots reach and compares every field. Nor is concurrency: flows
// are serial, serve's mutexes are leaf locks, and each concurrency defect
// class has a runtime test under go test -race (serve's slow-scrape,
// scrape-during-submit and goroutine-leak tests, loadgen's body-close test,
// castore's handle test).
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
var All = []*Analyzer{MapOrder, SeedPurity, StageDeps, GlobalMut}

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

// funcBodies maps each function declared in the package to its body.
func funcBodies(p *Pass) map[*types.Func]*ast.BlockStmt {
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = fd.Body
				}
			}
		}
	}
	return bodies
}

// derefType strips one level of pointer indirection.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isMutexType reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := derefType(t).(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}

// staticCalleeOf resolves the function or method a call statically targets,
// or nil (calls through func values and interfaces).
func staticCalleeOf(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := p.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel := p.Pkg.Info.Selections[fun]; sel != nil {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
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
