package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// StageDeps proves the per-stage cache keys of the staged flow engine
// (internal/stage) sound. A content-addressed stage cache is correct only if
// each stage's key covers everything the stage actually reads; keycoverage
// proves that for the whole-flow Config.Key, and stagedeps proves it stage by
// stage.
//
// Stages are declared by anchor directives on (or above) the first statement
// of a stage region in a function with a Config parameter:
//
//	//tmi3dvet:stage synth
//
// In the flow package each stage body is its own function with one anchor
// above its first statement. In general a region covers every top-level
// statement up to the next anchor, and regions sharing a name merge their
// read sets. From each region the analyzer computes, transitively through
// same-package calls (including Config methods like DeriveSeed and closures
// defined in the region):
//
//   - the Config fields the stage reads — a bare use of a whole Config value
//     (Result{Config: cfg}) reads every field;
//   - the package-level variables it touches (ambient state).
//
// Everything else a stage consumes is an upstream stage's value, covered by
// that stage's artifact ID; the flow executor lets a body read only the
// values its node's Deps name, which is what puts them in the ID.
//
// The Config read set is then diffed against the package's declarative
// manifest, a package-level
//
//	var StageKeys = map[string][]string{"synth": {"Circuit", ...}, ...}
//
// (internal/flow/stagekeys.go): a field the stage reads but its key omits
// would serve stale cached artifacts when that field changes; a dead key
// field needlessly splits identical artifacts; an ambient read that is not
// provably key-addressed-and-immutable (globalstate.go) cannot be covered by
// any Config-derived key at all. The computed read sets are exported through
// Pass.ExportStage so cmd/tmi3dvet -json can hand the measured dependency
// surface to CI.
//
// Soundness posture: same-package transitivity plus the globalmut contract on
// the leaf packages. Cross-package callees (place.Run, sta.Analyze) cannot
// read flow.Config — they receive individual fields as arguments, which this
// analyzer sees at the call site — and their own ambient state is policed by
// globalmut/seedpurity in those packages, so the composition covers the whole
// read surface.
var StageDeps = &Analyzer{
	Name: "stagedeps",
	Doc:  "verifies per-stage Config read sets against the StageKeys manifest",
	Run:  runStageDeps,
}

// StageReads is the computed read set of one anchored stage — the measured
// dependency surface a per-stage cache key must cover.
type StageReads struct {
	Package      string   `json:"package"`
	Func         string   `json:"func"`
	Stage        string   `json:"stage"`
	ConfigFields []string `json:"config_fields"`
	Globals      []string `json:"globals,omitempty"`
}

const stageDirective = "tmi3dvet:stage"

type stageAnchor struct {
	pos  token.Pos
	name string
	used bool
}

// stageManifest is the parsed StageKeys literal.
type stageManifest struct {
	pos     token.Pos
	entries map[string]*manifestEntry
}

type manifestEntry struct {
	pos    token.Pos
	fields map[string]token.Pos // declared field -> element position
	used   bool
}

func runStageDeps(p *Pass) {
	anchorsByFile := map[*ast.File][]*stageAnchor{}
	total := 0
	for _, f := range p.Pkg.Files {
		as := collectStageAnchors(p, f)
		anchorsByFile[f] = as
		total += len(as)
	}
	if total == 0 {
		return
	}
	cfgType := findConfigType(p)
	manifest := parseStageKeys(p)
	if manifest == nil {
		p.Reportf(firstAnchorPos(p, anchorsByFile), "package has //tmi3dvet:stage anchors but no StageKeys manifest: declare var StageKeys = map[string][]string{stage: {Config fields}} so the incremental cache has a per-stage key contract")
	}
	sums := newEffects(p, cfgType)
	gs := classifyGlobals(p)
	sup := collectSuppressions(p, "global") // consult-only; globalmut owns the audit
	for _, f := range p.Pkg.Files {
		anchors := anchorsByFile[f]
		if len(anchors) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var inBody []*stageAnchor
			for _, a := range anchors {
				if a.pos > fd.Body.Lbrace && a.pos < fd.Body.Rbrace {
					inBody = append(inBody, a)
				}
			}
			if len(inBody) == 0 {
				continue
			}
			checkStagedFunc(p, fd, inBody, cfgType, manifest, sums, gs, sup)
		}
		for _, a := range anchors {
			if !a.used && a.name != "" {
				p.Reportf(a.pos, "//tmi3dvet:stage %s anchors no top-level statement of a function body: move it directly above the stage's first statement or delete it", a.name)
			}
		}
	}
	if manifest != nil {
		names := make([]string, 0, len(manifest.entries))
		for n := range manifest.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if e := manifest.entries[n]; !e.used {
				p.Reportf(e.pos, "StageKeys entry %q matches no //tmi3dvet:stage anchor: dead manifest stage — delete it or anchor the stage", n)
			}
		}
	}
}

func collectStageAnchors(p *Pass, f *ast.File) []*stageAnchor {
	var anchors []*stageAnchor
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := cutDirective(c, "stage")
			if !ok {
				continue
			}
			name := ""
			if fields := strings.Fields(rest); len(fields) > 0 {
				name = fields[0]
			}
			if name == "" {
				p.Reportf(c.Pos(), "//tmi3dvet:stage anchor without a stage name — name the stage this region belongs to")
			}
			anchors = append(anchors, &stageAnchor{pos: c.Pos(), name: name})
		}
	}
	return anchors
}

func firstAnchorPos(p *Pass, byFile map[*ast.File][]*stageAnchor) token.Pos {
	best := token.NoPos
	for _, f := range p.Pkg.Files {
		for _, a := range byFile[f] {
			if best == token.NoPos || a.pos < best {
				best = a.pos
			}
		}
	}
	return best
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

// parseStageKeys reads the package's StageKeys map literal. Non-literal
// manifests are reported: the analyzer (and the cache builder) must be able
// to read the contract statically.
func parseStageKeys(p *Pass) *stageManifest {
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
				for i, name := range vs.Names {
					if name.Name != "StageKeys" || i >= len(vs.Values) {
						continue
					}
					return parseStageKeysLit(p, name.Pos(), vs.Values[i])
				}
			}
		}
	}
	return nil
}

func parseStageKeysLit(p *Pass, pos token.Pos, v ast.Expr) *stageManifest {
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		p.Reportf(pos, "StageKeys must be a literal map[string][]string so stagedeps and the cache builder can read it statically")
		return nil
	}
	m := &stageManifest{pos: pos, entries: map[string]*manifestEntry{}}
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
		entry := &manifestEntry{pos: kv.Key.Pos(), fields: map[string]token.Pos{}}
		vlit, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			p.Reportf(kv.Value.Pos(), "StageKeys[%q] must be a literal []string of Config field names", stage)
			continue
		}
		for _, fe := range vlit.Elts {
			field, ok := constString(p, fe)
			if !ok {
				p.Reportf(fe.Pos(), "StageKeys[%q] element must be a string constant naming a Config field", stage)
				continue
			}
			if _, dup := entry.fields[field]; dup {
				p.Reportf(fe.Pos(), "StageKeys[%q] lists Config.%s twice", stage, field)
				continue
			}
			entry.fields[field] = fe.Pos()
		}
		m.entries[stage] = entry
	}
	return m
}

func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// stageRegion is one contiguous anchored run of top-level statements.
type stageRegion struct {
	anchor *stageAnchor
	stmts  []ast.Stmt
}

// stageAccum merges the read sets of all regions sharing a stage name.
type stageAccum struct {
	name      string
	anchorPos token.Pos
	fields    map[string]token.Pos // Config field -> first read position
	globals   map[types.Object]token.Pos
}

func checkStagedFunc(p *Pass, fd *ast.FuncDecl, anchors []*stageAnchor, cfgType *types.Named, manifest *stageManifest, sums *effects, gs *globalState, sup *suppressions) {
	if cfgType == nil {
		for _, a := range anchors {
			a.used = true
		}
		p.Reportf(fd.Name.Pos(), "%s carries //tmi3dvet:stage anchors but the package declares no Config struct: stagedeps has no key domain to verify", fd.Name.Name)
		return
	}
	cfgParam := configParam(p, fd, cfgType)
	if cfgParam == nil {
		for _, a := range anchors {
			a.used = true
		}
		p.Reportf(fd.Name.Pos(), "%s carries //tmi3dvet:stage anchors but has no Config parameter: stagedeps cannot attribute reads to a key domain", fd.Name.Name)
		return
	}

	// Map each anchor to the first top-level statement after it.
	stmts := fd.Body.List
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].pos < anchors[j].pos })
	startAnchor := map[int]*stageAnchor{}
	for _, a := range anchors {
		idx := -1
		for i, st := range stmts {
			if st.Pos() > a.pos {
				idx = i
				break
			}
		}
		if idx == -1 {
			continue // dangling; reported by the caller via !used
		}
		if idx > 0 && a.pos < stmts[idx-1].End() {
			a.used = true
			if a.name != "" {
				p.Reportf(a.pos, "//tmi3dvet:stage %s is nested inside a statement: anchors segment the top-level statements of %s, move it between stages", a.name, fd.Name.Name)
			}
			continue
		}
		a.used = true
		if a.name == "" {
			continue // bare anchor already reported at collect
		}
		if prev := startAnchor[idx]; prev != nil {
			p.Reportf(a.pos, "duplicate //tmi3dvet:stage anchor: stage %q already starts at this statement (anchor %q)", a.name, prev.name)
			continue
		}
		startAnchor[idx] = a
	}

	var regions []*stageRegion
	var preceding []ast.Stmt
	var cur *stageRegion
	for i, st := range stmts {
		if a := startAnchor[i]; a != nil {
			cur = &stageRegion{anchor: a}
			regions = append(regions, cur)
		}
		if cur == nil {
			preceding = append(preceding, st)
			continue
		}
		cur.stmts = append(cur.stmts, st)
	}
	if len(preceding) > 0 {
		p.Reportf(preceding[0].Pos(), "%d statement(s) precede the first //tmi3dvet:stage anchor in %s: every statement must belong to a named stage for the per-stage keys to be exhaustive", len(preceding), fd.Name.Name)
	}

	// Scan each region, then merge by stage name.
	accums := map[string]*stageAccum{}
	var order []string
	for _, r := range regions {
		acc := accums[r.anchor.name]
		if acc == nil {
			acc = &stageAccum{
				name:      r.anchor.name,
				anchorPos: r.anchor.pos,
				fields:    map[string]token.Pos{},
				globals:   map[types.Object]token.Pos{},
			}
			accums[r.anchor.name] = acc
			order = append(order, r.anchor.name)
		}
		scanStageRegion(p, sums, cfgType, r, acc)
	}

	fieldSet := configFieldSet(cfgType)
	for _, name := range order {
		acc := accums[name]
		reportStage(p, manifest, fieldSet, acc, gs, sup)
		p.ExportStage(StageReads{
			Package:      p.Pkg.Path,
			Func:         fd.Name.Name,
			Stage:        name,
			ConfigFields: sortedKeys(acc.fields),
			Globals:      sortedGlobalNames(acc.globals),
		})
	}
}

func configParam(p *Pass, fd *ast.FuncDecl, cfgType *types.Named) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, fld := range fd.Type.Params.List {
		for _, nm := range fld.Names {
			v, ok := p.Pkg.Info.Defs[nm].(*types.Var)
			if ok && derefType(v.Type()) == cfgType {
				return v
			}
		}
	}
	return nil
}

func configFieldSet(cfgType *types.Named) map[string]bool {
	set := map[string]bool{}
	st := cfgType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		set[st.Field(i).Name()] = true
	}
	return set
}

// reportStage diffs one stage's computed read set against the manifest and
// flags uncovered ambient state.
func reportStage(p *Pass, manifest *stageManifest, fieldSet map[string]bool, acc *stageAccum, gs *globalState, sup *suppressions) {
	if manifest != nil {
		entry := manifest.entries[acc.name]
		if entry == nil {
			p.Reportf(acc.anchorPos, "stage %q has no StageKeys entry: the incremental cache cannot key this stage — add StageKeys[%q] covering %s", acc.name, acc.name, fieldList(sortedKeys(acc.fields)))
		} else {
			entry.used = true
			for _, f := range sortedKeys(acc.fields) {
				if _, ok := entry.fields[f]; !ok {
					p.Reportf(acc.fields[f], "stage %q reads Config.%s but StageKeys[%q] omits it: a cache keyed by the manifest would serve stale %s artifacts when %s changes — add it to the stage key", acc.name, f, acc.name, acc.name, f)
				}
			}
			declared := make([]string, 0, len(entry.fields))
			for f := range entry.fields {
				declared = append(declared, f)
			}
			sort.Strings(declared)
			for _, f := range declared {
				switch {
				case !fieldSet[f]:
					p.Reportf(entry.fields[f], "StageKeys[%q] names %s, which is not a field of Config", acc.name, f)
				case acc.fields[f] == token.NoPos:
					p.Reportf(entry.fields[f], "dead key field: StageKeys[%q] lists Config.%s but the stage never reads it — a wider key splits identical artifacts into distinct cache entries", acc.name, f)
				}
			}
		}
	}
	// Ambient state: a read the stage key cannot cover. Only globals the
	// classifier cannot prove key-addressed or immutable are findings;
	// //tmi3dvet:global at the site (audited by globalmut) is honored.
	for _, obj := range sortedGlobalObjs(acc.globals) {
		switch gs.classOf(obj) {
		case gcReadOnly, gcSync, gcOncePublished, gcGuardedMap:
			continue
		}
		pos := acc.globals[obj]
		if sup.at(p, pos) != nil {
			continue
		}
		p.Reportf(pos, "stage %q reads ambient package state %s that no Config-derived key can cover: make it key-addressed behind a sync.Once or annotate //tmi3dvet:global <reason>", acc.name, obj.Name())
	}
}

func fieldList(fields []string) string {
	if len(fields) == 0 {
		return "no Config fields"
	}
	return "[" + strings.Join(fields, " ") + "]"
}

// scanStageRegion walks one region's statements, attributing Config field
// reads (direct, transitive through same-package calls, and whole-Config
// uses) and global touches to the accumulator.
func scanStageRegion(p *Pass, sums *effects, cfgType *types.Named, r *stageRegion, acc *stageAccum) {
	addField := func(name string, pos token.Pos) {
		if _, ok := acc.fields[name]; !ok {
			acc.fields[name] = pos
		}
	}
	addAll := func(pos token.Pos) {
		st := cfgType.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			addField(st.Field(i).Name(), pos)
		}
	}
	addGlobal := func(obj types.Object, pos token.Pos) {
		if _, ok := acc.globals[obj]; !ok {
			acc.globals[obj] = pos
		}
	}
	pkgScope := p.Pkg.Types.Scope()
	for _, st := range r.stmts {
		// Idents used as a selector base are judged at the selector; a bare
		// Config-typed use elsewhere reads the whole struct.
		selBases := map[*ast.Ident]bool{}
		ast.Inspect(st, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					selBases[id] = true
				}
			}
			return true
		})
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := p.Pkg.Info.Selections[n]; sel != nil {
					if f, ok := sel.Obj().(*types.Var); ok && f.IsField() && fieldOfConfig(cfgType, f) {
						addField(f.Name(), n.Pos())
					}
				}
			case *ast.CallExpr:
				if callee := staticCalleeOf(p, n); callee != nil && callee.Pkg() == p.Pkg.Types {
					sum := sums.summarize(callee)
					if sum != nil {
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
				obj := p.Pkg.Info.Uses[n]
				if obj == nil {
					return true
				}
				v, ok := obj.(*types.Var)
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
	}
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

func sortedGlobalNames(m map[types.Object]token.Pos) []string {
	objs := sortedGlobalObjs(m)
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		out = append(out, o.Name())
	}
	return out
}
