package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// WireSafe proves wire-format totality for every type whose encoded bytes
// cross a process boundary. The flow.WireTypes manifest names the wire set; for each entry
// the analyzer diffs the struct's fields against what its codec actually
// carries and reports:
//
//   - a field the marshal half writes but the unmarshal half never restores
//     (the silent-drop class: a remote decode looks healthy and is missing
//     data);
//   - a field the unmarshal half writes but the marshal half never reads
//     (the decoder invents it — derived indexes must say so);
//   - a field covered by neither half;
//   - an asymmetric codec (a marshal method with no unmarshal counterpart or
//     vice versa);
//   - for tag-driven types, a field excluded from the wire (json:"-" or
//     unexported) without an audited //tmi3dvet:nonwire <reason>;
//   - a struct type with a JSON codec that the manifest does not name, and a
//     manifest entry naming no module type (dead entry).
//
// Types attributed "nonfinite" in the manifest can carry ±Inf/NaN in float
// fields, which encoding/json rejects outright. For them the analyzer also
// requires every raw float field of their wire struct to carry a
// //tmi3dvet:finite <reason> (the safe path is a NaN/Inf-aware codec type),
// and flags any module site that copies such a float field directly into a
// plain tag-encoded wire field — the latent encode failure that surfaces only
// on degenerate inputs.
//
// Soundness posture: field coverage is computed over the transitive
// same-package static call graph of each codec half, with writes collected from assignment targets, &-escapes,
// keyed composite literals, and receiver-field writes in callees. Dynamic
// dispatch through interfaces and cross-package helpers are not followed;
// package-level Encode*/Decode* helpers that delegate the whole value to
// encoding/json are covered as tag codecs. The non-finite copy check is
// lexical — wrapping the copy in a sanitizing call is what silences it,
// which is exactly the fix.
var WireSafe = &Analyzer{
	Name: "wiresafe",
	Doc:  "wire-codec totality over the flow.WireTypes manifest: silent-drop fields, asymmetric codec pairs, unaudited off-wire fields, raw non-finite floats",
	Run:  runWireSafe,
}

// wireEntry is one parsed WireTypes manifest entry.
type wireEntry struct {
	key     string // "<package-path-suffix>.<TypeName>"
	pkgPath string
	typName string
	attrs   []string
	pos     token.Pos
}

type wireManifest struct {
	decl    *Package
	entries []wireEntry
}

func runWireSafe(p *Pass) {
	man := parseWireManifest(p.Mod)
	if man == nil {
		return // module declares no wire set; nothing to prove
	}
	if man.decl == p.Pkg {
		checkWireManifest(p, man)
		checkNonfiniteCopies(p, man)
	}
	for _, e := range man.entries {
		if pathIn(p.Pkg.Path, []string{e.pkgPath}) {
			checkWireType(p, e)
		}
	}
	checkUnlistedCodecs(p, man)
}

// parseWireManifest finds the module's `var WireTypes = map[string][]string`
// declaration (syntactically, so analysis order over packages cannot matter)
// and parses its entries.
func parseWireManifest(mod *Module) *wireManifest {
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "WireTypes" || len(vs.Values) != 1 {
						continue
					}
					cl, ok := vs.Values[0].(*ast.CompositeLit)
					if !ok {
						continue
					}
					return parseWireEntries(pkg, cl)
				}
			}
		}
	}
	return nil
}

func parseWireEntries(pkg *Package, cl *ast.CompositeLit) *wireManifest {
	man := &wireManifest{decl: pkg}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := pkgConstString(pkg, kv.Key)
		if !ok {
			continue
		}
		e := wireEntry{key: key, pos: kv.Key.Pos()}
		if i := strings.LastIndex(key, "."); i >= 0 {
			e.pkgPath, e.typName = key[:i], key[i+1:]
		}
		if vl, ok := kv.Value.(*ast.CompositeLit); ok {
			for _, a := range vl.Elts {
				if s, ok := pkgConstString(pkg, a); ok {
					e.attrs = append(e.attrs, s)
				}
			}
		}
		man.entries = append(man.entries, e)
	}
	return man
}

func pkgConstString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkWireManifest validates the manifest itself from the declaring
// package's pass: every entry must resolve to a struct type of some module
// package.
func checkWireManifest(p *Pass, man *wireManifest) {
	for _, e := range man.entries {
		if e.pkgPath == "" || e.typName == "" {
			p.Reportf(e.pos, "WireTypes entry %q is not of the form <package-path>.<TypeName>", e.key)
			continue
		}
		pkg := findModulePkg(p.Mod, e.pkgPath)
		if pkg == nil {
			p.Reportf(e.pos, "dead WireTypes entry %q: no module package matches %q", e.key, e.pkgPath)
			continue
		}
		tn, _ := pkg.Types.Scope().Lookup(e.typName).(*types.TypeName)
		if tn == nil {
			p.Reportf(e.pos, "dead WireTypes entry %q: package %s declares no type %s", e.key, pkg.Path, e.typName)
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
			p.Reportf(e.pos, "WireTypes entry %q: %s is not a struct type — only structs carry field-level wire contracts", e.key, e.typName)
		}
	}
}

func findModulePkg(mod *Module, pathSuffix string) *Package {
	for _, pkg := range mod.Pkgs {
		if pathIn(pkg.Path, []string{pathSuffix}) {
			return pkg
		}
	}
	return nil
}

// codecHalves resolves a type's custom codec pair: the marshal half is a
// MarshalJSON or EncodeJSON method; the unmarshal half is an UnmarshalJSON
// method or — paired with a marshal method — a package-level Decode* function
// returning the type (the liberty.DecodeJSON shape).
func codecHalves(pkg *Package, named *types.Named) (mar, unm *types.Func) {
	if mar = methodNamed(named, "MarshalJSON"); mar == nil {
		mar = methodNamed(named, "EncodeJSON")
	}
	unm = methodNamed(named, "UnmarshalJSON")
	if unm == nil && mar != nil {
		unm = findDecodeFunc(pkg, named)
	}
	return mar, unm
}

func findDecodeFunc(pkg *Package, named *types.Named) *types.Func {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Decode") {
			continue
		}
		fn, ok := scope.Lookup(name).(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() == 0 {
			continue
		}
		if types.Identical(derefType(sig.Results().At(0).Type()), named) {
			return fn
		}
	}
	return nil
}

// checkWireType analyzes one manifest type declared in this package.
func checkWireType(p *Pass, e wireEntry) {
	ts, st := findStructDecl(p.Pkg, e.typName)
	if ts == nil {
		return // dead entry; reported from the declaring package's pass
	}
	obj := p.Pkg.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	mar, unm := codecHalves(p.Pkg, named)
	switch {
	case mar == nil && unm == nil:
		checkTagsType(p, named, st)
		if hasWireAttr(e.attrs, "nonfinite") {
			p.Reportf(ts.Name.Pos(), "non-finite wire type %s has no custom codec: plain encoding/json rejects the ±Inf/NaN values the attribute declares possible", e.typName)
		}
	case mar != nil && unm != nil:
		checkCodecType(p, named, st, mar, unm)
		if hasWireAttr(e.attrs, "nonfinite") {
			checkNonfiniteWireStruct(p, named, mar)
		}
	case mar != nil:
		p.Reportf(ts.Name.Pos(), "asymmetric codec on wire type %s: %s has no unmarshal counterpart — the bytes it writes cannot be decoded back", e.typName, mar.Name())
	default:
		p.Reportf(ts.Name.Pos(), "asymmetric codec on wire type %s: %s has no marshal counterpart — it decodes bytes nothing encodes", e.typName, unm.Name())
	}
}

func hasWireAttr(attrs []string, want string) bool {
	for _, a := range attrs {
		if a == want {
			return true
		}
	}
	return false
}

func findStructDecl(pkg *Package, name string) (*ast.TypeSpec, *ast.StructType) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return ts, st
				}
			}
		}
	}
	return nil, nil
}

// checkCodecType diffs the struct's fields against the read set of the
// marshal half and the write set of the unmarshal half.
func checkCodecType(p *Pass, named *types.Named, st *ast.StructType, mar, unm *types.Func) {
	mset := fieldsReadBy(p, named, mar)
	uset := fieldsWrittenBy(p, named, unm)
	tname := named.Obj().Name()
	for _, field := range st.Fields.List {
		reason, dpos, annotated := fieldSuppression(p, "nonwire", field)
		for _, name := range field.Names {
			obj := p.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			switch {
			case mset[obj] && uset[obj]:
				if annotated {
					p.Reportf(dpos, "stale //tmi3dvet:nonwire on %s.%s: the field IS carried by the %s/%s pair", tname, name.Name, mar.Name(), unm.Name())
				}
			case annotated && reason == "":
				p.Reportf(dpos, "//tmi3dvet:nonwire suppression without a reason — say why %s.%s may stay off the wire", tname, name.Name)
			case annotated:
				// Audited off the wire.
			case mset[obj]:
				p.Reportf(name.Pos(), "%s.%s is marshaled by %s but never restored by %s: a decoded copy silently drops it — restore it or annotate //tmi3dvet:nonwire <reason>", tname, name.Name, mar.Name(), unm.Name())
			case uset[obj]:
				p.Reportf(name.Pos(), "%s.%s is written by %s but never marshaled by %s: the decoder cannot take it from the wire — marshal it, or annotate //tmi3dvet:nonwire <reason> if it is derived on decode", tname, name.Name, unm.Name(), mar.Name())
			default:
				p.Reportf(name.Pos(), "%s.%s is not covered by the %s/%s codec pair: it silently vanishes on the wire — wire it or annotate //tmi3dvet:nonwire <reason>", tname, name.Name, mar.Name(), unm.Name())
			}
		}
	}
}

// checkTagsType audits a tag-driven wire struct: every field either rides the
// default encoding/json path or carries a nonwire audit.
func checkTagsType(p *Pass, named *types.Named, st *ast.StructType) {
	tname := named.Obj().Name()
	for _, field := range st.Fields.List {
		reason, dpos, annotated := fieldSuppression(p, "nonwire", field)
		tag := jsonTagName(field)
		for _, name := range field.Names {
			how := ""
			if !ast.IsExported(name.Name) {
				how = "unexported"
			} else if tag == "-" {
				how = `json:"-"`
			}
			switch {
			case how == "" && annotated:
				p.Reportf(dpos, "stale //tmi3dvet:nonwire on %s.%s: the field IS serialized by encoding/json", tname, name.Name)
			case how == "":
				// Serialized by encoding/json.
			case !annotated:
				p.Reportf(name.Pos(), "%s.%s is excluded from the wire (%s) without an audit: a decoded copy silently loses it — annotate //tmi3dvet:nonwire <reason>", tname, name.Name, how)
			case reason == "":
				p.Reportf(dpos, "//tmi3dvet:nonwire suppression without a reason — say why %s.%s may stay off the wire", tname, name.Name)
			}
		}
	}
}

func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return ""
	}
	name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
	return name
}

func methodNamed(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// fieldsReadBy walks fn and every same-package function it transitively
// calls, collecting which fields of named are selected anywhere along the
// way.
func fieldsReadBy(p *Pass, named *types.Named, root *types.Func) map[types.Object]bool {
	read := map[types.Object]bool{}
	fieldOwner := map[types.Object]bool{}
	if s, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < s.NumFields(); i++ {
			fieldOwner[s.Field(i)] = true
		}
	}
	bodies := funcBodies(p)
	seen := map[*types.Func]bool{}
	work := []*types.Func{root}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		body := bodies[fn]
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel := p.Pkg.Info.Selections[n]; sel != nil {
					if f, ok := sel.Obj().(*types.Var); ok && fieldOwner[f] {
						read[f] = true
					}
				}
			case *ast.CallExpr:
				if callee := staticCalleeOf(p, n); callee != nil && callee.Pkg() == p.Pkg.Types {
					work = append(work, callee)
				}
			}
			return true
		})
	}
	return read
}

// fieldsWrittenBy collects the fields of named that fn (transitively, through
// same-package static callees) writes: assignment targets, ++/--, &-escapes
// (decode helpers write through the pointer), and keyed composite literals of
// the type.
func fieldsWrittenBy(p *Pass, named *types.Named, root *types.Func) map[types.Object]bool {
	written := map[types.Object]bool{}
	fieldOwner := map[types.Object]bool{}
	fieldByName := map[string]types.Object{}
	if s, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < s.NumFields(); i++ {
			fieldOwner[s.Field(i)] = true
			fieldByName[s.Field(i).Name()] = s.Field(i)
		}
	}
	record := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s := p.Pkg.Info.Selections[sel]; s != nil {
					if f, ok := s.Obj().(*types.Var); ok && fieldOwner[f] {
						written[f] = true
					}
				}
			}
			return true
		})
	}
	bodies := funcBodies(p)
	seen := map[*types.Func]bool{}
	work := []*types.Func{root}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		body := bodies[fn]
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					record(lhs)
				}
			case *ast.IncDecStmt:
				record(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					record(n.X)
				}
			case *ast.CompositeLit:
				if t := p.TypeOf(n); t != nil && types.Identical(derefType(t), named) {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if f := fieldByName[id.Name]; f != nil {
									written[f] = true
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				if callee := staticCalleeOf(p, n); callee != nil && callee.Pkg() == p.Pkg.Types {
					work = append(work, callee)
				}
			}
			return true
		})
	}
	return written
}

// checkNonfiniteWireStruct requires every raw float field on the wire structs
// a non-finite type marshals through to be audited //tmi3dvet:finite — the
// safe default is a NaN/Inf-aware codec type like sta.nfFloat.
func checkNonfiniteWireStruct(p *Pass, named *types.Named, mar *types.Func) {
	bodies := funcBodies(p)
	seen := map[*types.Func]bool{}
	structs := map[*types.Named]bool{}
	work := []*types.Func{mar}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		body := bodies[fn]
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t, ok := derefType(p.TypeOf(n)).(*types.Named); ok && t != named && t.Obj().Pkg() == p.Pkg.Types {
					if _, isStruct := t.Underlying().(*types.Struct); isStruct {
						structs[t] = true
					}
				}
			case *ast.CallExpr:
				if callee := staticCalleeOf(p, n); callee != nil && callee.Pkg() == p.Pkg.Types {
					work = append(work, callee)
				}
			}
			return true
		})
	}
	var order []*types.Named
	for ws := range structs {
		order = append(order, ws)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Obj().Name() < order[j].Obj().Name() })
	for _, ws := range order {
		_, st := findStructDecl(p.Pkg, ws.Obj().Name())
		if st == nil {
			continue
		}
		for _, field := range st.Fields.List {
			reason, dpos, annotated := fieldSuppression(p, "finite", field)
			for _, name := range field.Names {
				obj := p.Pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				b, isBasic := obj.Type().(*types.Basic)
				raw := isBasic && b.Info()&types.IsFloat != 0
				switch {
				case raw && !annotated:
					p.Reportf(name.Pos(), "raw float field %s.%s on the wire struct of non-finite type %s: a ±Inf/NaN value fails json encoding outright — route it through the safe codec or annotate //tmi3dvet:finite <reason>", ws.Obj().Name(), name.Name, named.Obj().Name())
				case raw && reason == "":
					p.Reportf(dpos, "//tmi3dvet:finite suppression without a reason — say why %s.%s can never be ±Inf/NaN", ws.Obj().Name(), name.Name)
				case !raw && annotated:
					p.Reportf(dpos, "stale //tmi3dvet:finite on %s.%s: the field is not a raw float", ws.Obj().Name(), name.Name)
				}
			}
		}
	}
}

// checkNonfiniteCopies scans the whole module for direct copies of a
// non-finite type's float field into a plain tag-encoded wire field. The
// check is lexical: wrapping the copy in a clamping/sanitizing call silences
// it, and is the fix.
func checkNonfiniteCopies(p *Pass, man *wireManifest) {
	nf := map[*types.Named]bool{}
	plain := map[*types.Named]bool{}
	for _, e := range man.entries {
		pkg := findModulePkg(p.Mod, e.pkgPath)
		if pkg == nil {
			continue
		}
		tn, _ := pkg.Types.Scope().Lookup(e.typName).(*types.TypeName)
		if tn == nil {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if hasWireAttr(e.attrs, "nonfinite") {
			nf[named] = true
			continue
		}
		if m, u := codecHalves(pkg, named); m == nil && u == nil {
			plain[named] = true
		}
	}
	if len(nf) == 0 {
		return
	}
	for _, pkg := range p.Mod.Pkgs {
		for _, f := range pkg.Files {
			checkNonfiniteCopiesFile(p, pkg, f, nf, plain)
		}
	}
}

func checkNonfiniteCopiesFile(p *Pass, pkg *Package, f *ast.File, nf, plain map[*types.Named]bool) {
	// floatFieldOf resolves e (parens peeled) to a raw-float field selection
	// on a type in the given set.
	floatFieldOf := func(set map[*types.Named]bool, e ast.Expr) (string, bool) {
		for {
			pe, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = pe.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		s := pkg.Info.Selections[sel]
		if s == nil {
			return "", false
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok {
			return "", false
		}
		b, ok := fv.Type().(*types.Basic)
		if !ok || b.Info()&types.IsFloat == 0 {
			return "", false
		}
		owner, ok := derefType(s.Recv()).(*types.Named)
		if !ok || !set[owner] {
			return "", false
		}
		return owner.Obj().Name() + "." + fv.Name(), true
	}
	report := func(pos token.Pos, src, dst string) {
		p.Reportf(pos, "possibly non-finite %s copied into plain-JSON wire field %s: encoding/json rejects ±Inf/NaN, so the result fails to encode exactly on degenerate inputs — clamp the copy through a finite() helper", src, dst)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Rhs {
				src, ok := floatFieldOf(nf, n.Rhs[i])
				if !ok {
					continue
				}
				if dst, ok := floatFieldOf(plain, n.Lhs[i]); ok {
					report(n.Rhs[i].Pos(), src, dst)
				}
			}
		case *ast.CompositeLit:
			t, ok := derefType(typeIn(pkg, n)).(*types.Named)
			if !ok || !plain[t] {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				src, ok := floatFieldOf(nf, kv.Value)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					fd := st.Field(i)
					if fd.Name() != id.Name {
						continue
					}
					if b, ok := fd.Type().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						report(kv.Value.Pos(), src, t.Obj().Name()+"."+id.Name)
					}
				}
			}
		}
		return true
	})
}

func typeIn(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// checkUnlistedCodecs reports struct types with a JSON codec that the
// manifest does not name — a codec outside the proven wire set is a wire
// format nobody audits.
func checkUnlistedCodecs(p *Pass, man *wireManifest) {
	listed := map[string]bool{}
	for _, e := range man.entries {
		if pathIn(p.Pkg.Path, []string{e.pkgPath}) {
			listed[e.typName] = true
		}
	}
	relPath := strings.TrimPrefix(p.Pkg.Path, p.Mod.Path+"/")
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		if listed[name] {
			continue
		}
		mar, unm := codecHalves(p.Pkg, named)
		if mar == nil && unm == nil {
			continue
		}
		h := mar
		if h == nil {
			h = unm
		}
		p.Reportf(tn.Pos(), "type %s has a JSON codec (%s) but the WireTypes manifest does not name it: its wire totality is unproven — add %q to flow.WireTypes", name, h.Name(), relPath+"."+name)
	}
}
