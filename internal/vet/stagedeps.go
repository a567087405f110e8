package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// StageDeps proves the per-stage cache keys of the staged flow engine
// (internal/stage) sound. A content-addressed stage cache is correct only if
// each stage's key covers everything the stage actually reads.
//
// The analyzer runs on a package that declares the per-stage key contract, a
// package-level
//
//	var StageKeys = map[string][]string{"synth": {"Circuit", ...}, ...}
//
// (internal/flow/stagekeys.go), and finds each stage's body through the
// package's stage table,
//
//	var Nodes = []Node{{Name: "opt", run: runOpt}, ...}
//
// whose body field is the Node field of func type taking a Config. From each
// body the analyzer computes, transitively through same-package calls
// (including Config methods like DeriveSeed and closures in the body):
//
//   - the Config fields the stage reads — a bare use of a whole Config value
//     (Result{Config: cfg}) reads every field;
//   - the package-level variables it touches (ambient state).
//
// Everything else a stage consumes is an upstream stage's value, covered by
// that stage's artifact ID; the flow executor lets a body read only the
// values its node's Deps name, which is what puts them in the ID.
//
// The Config read set is then diffed against the stage's StageKeys entry: a
// field the stage reads but its key omits would serve stale cached artifacts
// when that field changes; a dead key field needlessly splits identical
// artifacts; a key naming no Config field is a typo; and an ambient read that
// is not provably key-addressed-and-immutable (globalstate.go) cannot be
// covered by any Config-derived key at all. That Nodes and StageKeys name the
// same stages is flow's TestDAGMatchesStageKeys, not this analyzer's.
//
// Liveness: a package with StageKeys but no resolvable Nodes table, or a
// Nodes entry whose body is not a function of the package, is reported —
// the proof must never silently verify nothing.
//
// Soundness posture: same-package transitivity plus the globalmut contract on
// the leaf packages. Cross-package callees (place.Run, sta.Analyze) cannot
// read flow.Config — they receive individual fields as arguments, which this
// analyzer sees at the call site — and their own ambient state is policed by
// globalmut/seedpurity in those packages, so the composition covers the whole
// read surface.
var StageDeps = &Analyzer{
	Name: "stagedeps",
	Doc:  "verifies each flow.Nodes stage body's Config read set against the StageKeys manifest",
	Run:  runStageDeps,
}

// stageKeys is the parsed StageKeys literal: stage -> declared field ->
// element position.
type stageKeys map[string]map[string]token.Pos

// stageBody is one Nodes entry: its stage name and its body function.
type stageBody struct {
	name string
	pos  token.Pos
	fn   *types.Func
}

// stageReads is the computed read set of one stage body.
type stageReads struct {
	fields  map[string]token.Pos // Config field -> first read position
	globals map[types.Object]token.Pos
}

func runStageDeps(p *Pass) {
	keysPos, keys := parseStageKeys(p)
	if keysPos == token.NoPos {
		return
	}
	cfgType := findConfigType(p)
	bodies := stageBodies(p, cfgType)
	if bodies == nil {
		p.Reportf(keysPos, "package declares StageKeys but has no resolvable Nodes table: declare var Nodes = []Node{{Name: stage, <body>: fn}} with a Node field of func type taking Config, so stagedeps can find each stage's body")
		return
	}
	funcs := funcBodies(p)
	sums := newEffects(p, cfgType)
	gs := classifyGlobals(p)
	sup := collectSuppressions(p, "global") // consult-only; globalmut owns the audit
	fieldSet := configFieldSet(cfgType)
	for _, b := range bodies {
		body := funcs[b.fn]
		if body == nil {
			p.Reportf(b.pos, "Nodes entry %q has no body function of this package: stagedeps cannot compute its Config read set — point its body field at a package-level function", b.name)
			continue
		}
		reportStage(p, b.name, keys[b.name], fieldSet, scanStageBody(p, sums, cfgType, body), gs, sup)
	}
}

// findConfigType resolves the package's Config named type, if any.
func findConfigType(p *Pass) *types.Named {
	obj, ok := p.Pkg.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// packageVar returns the value expression of the package-level var name.
func packageVar(p *Pass, name string) (token.Pos, ast.Expr) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name == name && i < len(vs.Values) {
						return id.Pos(), vs.Values[i]
					}
				}
			}
		}
	}
	return token.NoPos, nil
}

// parseStageKeys reads the package's StageKeys map literal; a NoPos result
// means the package declares no StageKeys. Non-literal manifests are
// reported: the analyzer must be able to read the contract statically.
func parseStageKeys(p *Pass) (token.Pos, stageKeys) {
	pos, v := packageVar(p, "StageKeys")
	if v == nil {
		return token.NoPos, nil
	}
	keys := stageKeys{}
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		p.Reportf(pos, "StageKeys must be a literal map[string][]string so stagedeps can read it statically")
		return pos, keys
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		stage, ok := constString(p, kv.Key)
		if !ok {
			p.Reportf(kv.Key.Pos(), "StageKeys stage name must be a string constant")
			continue
		}
		vlit, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			p.Reportf(kv.Value.Pos(), "StageKeys[%q] must be a literal []string of Config field names", stage)
			continue
		}
		fields := map[string]token.Pos{}
		for _, fe := range vlit.Elts {
			field, ok := constString(p, fe)
			if !ok {
				p.Reportf(fe.Pos(), "StageKeys[%q] element must be a string constant naming a Config field", stage)
				continue
			}
			if _, dup := fields[field]; dup {
				p.Reportf(fe.Pos(), "StageKeys[%q] lists Config.%s twice", stage, field)
				continue
			}
			fields[field] = fe.Pos()
		}
		keys[stage] = fields
	}
	return pos, keys
}

func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// stageBodies resolves the Nodes literal into its (stage, body) entries, or
// nil when there is no Nodes slice literal whose element struct has a body
// field (a func-typed field taking Config). An entry whose body is not a
// package function keeps fn nil.
func stageBodies(p *Pass, cfgType *types.Named) []stageBody {
	if cfgType == nil {
		return nil
	}
	_, v := packageVar(p, "Nodes")
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	slice, ok := p.TypeOf(lit).(*types.Slice)
	if !ok {
		return nil
	}
	bodyField := ""
	if st, ok := slice.Elem().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields() && bodyField == ""; i++ {
			if takesConfig(st.Field(i).Type(), cfgType) {
				bodyField = st.Field(i).Name()
			}
		}
	}
	if bodyField == "" {
		return nil
	}
	out := []stageBody{}
	for _, elt := range lit.Elts {
		cl, ok := elt.(*ast.CompositeLit)
		if !ok {
			continue
		}
		b := stageBody{pos: cl.Pos()}
		for _, e := range cl.Elts {
			kv, ok := e.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "Name":
				b.name, _ = constString(p, kv.Value)
			case bodyField:
				if fid, ok := kv.Value.(*ast.Ident); ok {
					if fn, ok := p.ObjectOf(fid).(*types.Func); ok && fn.Pkg() == p.Pkg.Types {
						b.fn = fn
					}
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// takesConfig reports whether t is a func type with a Config parameter.
func takesConfig(t types.Type, cfgType *types.Named) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if derefType(sig.Params().At(i).Type()) == cfgType {
			return true
		}
	}
	return false
}

func configFieldSet(cfgType *types.Named) map[string]bool {
	set := map[string]bool{}
	st := cfgType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		set[st.Field(i).Name()] = true
	}
	return set
}

// reportStage diffs one stage's computed read set against its StageKeys
// entry and flags uncovered ambient state. A stage with no entry is skipped:
// TestDAGMatchesStageKeys owns the Nodes/StageKeys name match.
func reportStage(p *Pass, stage string, declared map[string]token.Pos, fieldSet map[string]bool, rs stageReads, gs *globalState, sup *suppressions) {
	if declared != nil {
		for _, f := range sortedKeys(rs.fields) {
			if _, ok := declared[f]; !ok {
				p.Reportf(rs.fields[f], "stage %q reads Config.%s but StageKeys[%q] omits it: a cache keyed by the manifest would serve stale %s artifacts when %s changes — add it to the stage key", stage, f, stage, stage, f)
			}
		}
		for _, f := range sortedKeys(declared) {
			switch {
			case !fieldSet[f]:
				p.Reportf(declared[f], "StageKeys[%q] names %s, which is not a field of Config", stage, f)
			case rs.fields[f] == token.NoPos:
				p.Reportf(declared[f], "dead key field: StageKeys[%q] lists Config.%s but the stage never reads it — a wider key splits identical artifacts into distinct cache entries", stage, f)
			}
		}
	}
	// Ambient state: a read the stage key cannot cover. Only globals the
	// classifier cannot prove key-addressed or immutable are findings;
	// //tmi3dvet:global at the site (audited by globalmut) is honored.
	for _, obj := range sortedGlobalObjs(rs.globals) {
		switch gs.classOf(obj) {
		case gcReadOnly, gcSync, gcOncePublished, gcGuardedMap:
			continue
		}
		pos := rs.globals[obj]
		if sup.at(p, pos) != nil {
			continue
		}
		p.Reportf(pos, "stage %q reads ambient package state %s that no Config-derived key can cover: make it key-addressed behind a sync.Once or annotate //tmi3dvet:global <reason>", stage, obj.Name())
	}
}

// scanStageBody walks one stage body, collecting Config field reads (direct,
// transitive through same-package calls, and whole-Config uses) and global
// touches.
func scanStageBody(p *Pass, sums *effects, cfgType *types.Named, body *ast.BlockStmt) stageReads {
	rs := stageReads{fields: map[string]token.Pos{}, globals: map[types.Object]token.Pos{}}
	addField := func(name string, pos token.Pos) {
		if _, ok := rs.fields[name]; !ok {
			rs.fields[name] = pos
		}
	}
	addAll := func(pos token.Pos) {
		st := cfgType.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			addField(st.Field(i).Name(), pos)
		}
	}
	addGlobal := func(obj types.Object, pos token.Pos) {
		if _, ok := rs.globals[obj]; !ok {
			rs.globals[obj] = pos
		}
	}
	pkgScope := p.Pkg.Types.Scope()
	// Idents used as a selector base are judged at the selector; a bare
	// Config-typed use elsewhere reads the whole struct.
	selBases := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				selBases[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := p.Pkg.Info.Selections[n]; sel != nil {
				if f, ok := sel.Obj().(*types.Var); ok && f.IsField() && fieldOfConfig(cfgType, f) {
					addField(f.Name(), n.Pos())
				}
			}
		case *ast.CallExpr:
			if callee := staticCalleeOf(p, n); callee != nil && callee.Pkg() == p.Pkg.Types {
				if sum := sums.summarize(callee); sum != nil {
					if sum.allFields {
						addAll(n.Pos())
					}
					for _, fname := range sortedBoolKeys(sum.fields) {
						addField(fname, n.Pos())
					}
					for _, obj := range sortedGlobalObjs(sum.globals) {
						addGlobal(obj, n.Pos())
					}
				}
			}
		case *ast.Ident:
			v, ok := p.Pkg.Info.Uses[n].(*types.Var)
			if !ok {
				return true
			}
			switch {
			case v.Parent() == pkgScope:
				addGlobal(v, n.Pos())
			case derefType(v.Type()) == cfgType && !selBases[n]:
				// Whole-Config use: copies every field.
				addAll(n.Pos())
			}
		}
		return true
	})
	return rs
}

func fieldOfConfig(cfgType *types.Named, f *types.Var) bool {
	st := cfgType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]token.Pos) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedBoolKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedGlobalObjs(m map[types.Object]token.Pos) []types.Object {
	out := make([]types.Object, 0, len(m))
	for o := range m {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name() != out[j].Name() {
			return out[i].Name() < out[j].Name()
		}
		return out[i].Pos() < out[j].Pos()
	})
	return out
}
