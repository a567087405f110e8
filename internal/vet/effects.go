package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural read-set engine behind stagedeps: the
// Config fields and package-level variables a function transitively touches.
//
// Summaries are per same-package *types.Func and memoized; recursion through
// a call cycle yields the partial summary accumulated so far, which the
// fixpoint nature of set union makes safe: a cycle adds nothing new on the
// second visit.

// fnEffects is the transitive effect summary of one function.
type fnEffects struct {
	// allFields marks a bare whole-Config use (reads every field).
	allFields bool
	// fields are the Config struct fields read, by name.
	fields map[string]bool
	// globals are package-level variables touched (read or written), with
	// the first touch position.
	globals map[types.Object]token.Pos
}

// effects memoizes per-function summaries for one package pass.
type effects struct {
	pass    *Pass
	cfgType *types.Named // nil when the package declares no Config struct
	bodies  map[*types.Func]*ast.BlockStmt
	memo    map[*types.Func]*fnEffects
	visit   map[*types.Func]bool
}

func newEffects(p *Pass, cfgType *types.Named) *effects {
	return &effects{
		pass:    p,
		cfgType: cfgType,
		bodies:  funcBodies(p),
		memo:    map[*types.Func]*fnEffects{},
		visit:   map[*types.Func]bool{},
	}
}

// summarize returns fn's transitive effect summary, or nil for functions
// without a same-package body (and for in-progress cycle members).
func (s *effects) summarize(fn *types.Func) *fnEffects {
	if sum, ok := s.memo[fn]; ok {
		return sum
	}
	if s.visit[fn] {
		return nil
	}
	body := s.bodies[fn]
	if body == nil {
		return nil
	}
	s.visit[fn] = true
	defer delete(s.visit, fn)
	sum := &fnEffects{
		fields:  map[string]bool{},
		globals: map[types.Object]token.Pos{},
	}
	p := s.pass
	pkgScope := p.Pkg.Types.Scope()
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
			if s.cfgType != nil {
				if sel := p.Pkg.Info.Selections[n]; sel != nil {
					if f, ok := sel.Obj().(*types.Var); ok && f.IsField() && fieldOfConfig(s.cfgType, f) {
						sum.fields[f.Name()] = true
					}
				}
			}
		case *ast.CallExpr:
			s.summarizeCall(sum, fn, n)
		case *ast.Ident:
			obj := p.Pkg.Info.Uses[n]
			v, ok := obj.(*types.Var)
			if !ok {
				return true
			}
			switch {
			case v.Parent() == pkgScope:
				if _, ok := sum.globals[v]; !ok {
					sum.globals[v] = n.Pos()
				}
			case s.cfgType != nil && derefType(v.Type()) == s.cfgType && !selBases[n] && !isParamOrRecv(fn, v):
				sum.allFields = true
			}
		}
		return true
	})
	s.memo[fn] = sum
	return sum
}

// summarizeCall folds the transitive summary of a same-package callee into
// sum.
func (s *effects) summarizeCall(sum *fnEffects, fn *types.Func, call *ast.CallExpr) {
	callee := staticCalleeOf(s.pass, call)
	if callee == nil || callee.Pkg() != s.pass.Pkg.Types || callee == fn {
		return
	}
	csum := s.summarize(callee)
	if csum == nil {
		return
	}
	sum.allFields = sum.allFields || csum.allFields
	for f := range csum.fields {
		sum.fields[f] = true
	}
	for obj, pos := range csum.globals {
		if _, ok := sum.globals[obj]; !ok {
			sum.globals[obj] = pos
		}
	}
}

// isParamOrRecv reports whether v is one of fn's parameters or its
// receiver. fn's own Config parameter or receiver flows the caller's Config
// in, so a bare use inside fn (passing it on, hashing it) is attributed where
// fn's transitive reads land anyway, and the receiver of a method like
// DeriveSeed must not count as a whole-Config read on its own. A bare use
// that reaches data (copying into a struct) is the one shape this
// under-approximates; Config methods in this repo only read fields, which
// the selector walk sees.
func isParamOrRecv(fn *types.Func, v *types.Var) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == v {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	return false
}
