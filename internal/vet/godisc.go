package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoDisc enforces goroutine discipline at the spawn sites that already exist
// (serve's worker pool and compare fan-out, core's study pool, loadgen's
// client fleet, the tmi3d CLI) and at every site the parallel PRs will add.
// It is deliberately shallow — lockorder proves the deep property (acyclic
// acquisition); godisc catches the shapes that are wrong on sight:
//
//   - stale capture: a go/defer closure inside a loop captures a variable
//     declared outside the loop that the loop body reassigns, so every
//     goroutine observes the final value instead of its iteration's;
//   - WaitGroup.Add placement: Add inside the spawned goroutine (or lexically
//     after Wait) races the Wait — the counter can hit zero before the
//     goroutine runs;
//   - send without receive: a goroutine sends on an unbuffered function-local
//     channel the function never receives from — if the receiver bails, the
//     goroutine blocks forever (the classic leak; a cap-1 channel like
//     cmd/tmi3d serve's done is the fix and is exempt);
//   - unlocked shared write: a per-iteration goroutine writes a captured
//     variable with no lock call in the closure and no per-spawn index
//     partition (res[i] with i a closure parameter is the sanctioned shape);
//   - unbounded spawn: a goroutine per element of a range loop with no
//     channel-semaphore or pool throttle in sight (core.RunAll's buffered
//     sem is the sanctioned shape; fixed-count worker loops are not ranges
//     and are exempt by construction).
//
// Findings are suppressed by an audited //tmi3dvet:godisc <reason> on the
// flagged line or the line above; godisc owns the directive's bare/stale
// audit.
//
// Soundness posture: purely lexical. A channel that escapes into another
// function, a lock held by the caller, or a semaphore hidden behind a helper
// all defeat the heuristics conservatively (escape and lock presence exempt;
// absence reports), so the analyzer errs toward silence on code it cannot
// see and toward noise only within one function body — where the fix or the
// suppression reason is local.
var GoDisc = &Analyzer{
	Name: "godisc",
	Doc:  "checks go/defer sites for capture, WaitGroup, leak and spawn-bound discipline",
	Run:  runGoDisc,
}

func runGoDisc(p *Pass) {
	sup := collectSuppressions(p, "godisc")
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoFunc(p, sup, fd)
		}
	}
	sup.reportStale(p, "goroutine-discipline finding")
}

// reportg reports unless a //tmi3dvet:godisc suppression covers the site.
func reportg(p *Pass, sup *suppressions, pos token.Pos, format string, args ...any) {
	if s := sup.at(p, pos); s != nil {
		return
	}
	p.Reportf(pos, format, args...)
}

// syncCall resolves a call on a sync primitive: the receiver's type name
// (WaitGroup, Mutex, RWMutex, Once, ...), the method, and the receiver
// expression. Promoted methods on embedded primitives resolve too.
func syncCall(p *Pass, call *ast.CallExpr) (typ, method string, base ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	s := p.Pkg.Info.Selections[sel]
	if s == nil {
		return "", "", nil, false
	}
	f, isFn := s.Obj().(*types.Func)
	if !isFn || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", nil, false
	}
	named, isNamed := derefType(sig.Recv().Type()).(*types.Named)
	if !isNamed {
		return "", "", nil, false
	}
	return named.Obj().Name(), f.Name(), sel.X, true
}

// checkGoFunc runs all five checks over one function body.
func checkGoFunc(p *Pass, sup *suppressions, fd *ast.FuncDecl) {
	// One stack-tracking walk finds the spawn sites and the WaitGroup calls
	// with their lexical context.
	type wgCall struct {
		call    *ast.CallExpr
		obj     types.Object
		method  string
		spawned bool // lexically inside a go-statement closure
	}
	var wgCalls []wgCall
	var stack []ast.Node
	spawnedLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				spawnedLits[lit] = true
			}
			checkSpawn(p, sup, fd, n, enclosingLoop(stack))
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkStaleCapture(p, sup, n.Pos(), "defer", lit, enclosingLoop(stack))
			}
		case *ast.CallExpr:
			typ, method, base, ok := syncCall(p, n)
			if !ok || typ != "WaitGroup" {
				break
			}
			inSpawn := false
			for _, anc := range stack {
				if lit, isLit := anc.(*ast.FuncLit); isLit && spawnedLits[lit] {
					inSpawn = true
				}
			}
			wgCalls = append(wgCalls, wgCall{call: n, obj: rootObj(p, base), method: method, spawned: inSpawn})
		}
		return true
	})

	// WaitGroup.Add placement: inside the spawned goroutine, or after Wait.
	for _, c := range wgCalls {
		if c.method != "Add" {
			continue
		}
		if c.spawned {
			reportg(p, sup, c.call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait: the counter can reach zero before this runs — Add before the go statement")
			continue
		}
		for _, w := range wgCalls {
			if w.method == "Wait" && w.obj != nil && w.obj == c.obj && w.call.Pos() < c.call.Pos() {
				reportg(p, sup, c.call.Pos(), "WaitGroup.Add after Wait on the same WaitGroup: Wait may have already released — restructure so every Add precedes the Wait")
				break
			}
		}
	}
}

// enclosingLoop returns the nearest for/range statement enclosing the top of
// the stack without crossing a function literal — a loop outside the closure
// that merely defines the spawn is not a spawn loop.
func enclosingLoop(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return n.(ast.Stmt)
		case *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// checkSpawn runs the per-go-statement checks.
func checkSpawn(p *Pass, sup *suppressions, fd *ast.FuncDecl, g *ast.GoStmt, loop ast.Stmt) {
	lit, _ := g.Call.Fun.(*ast.FuncLit)

	// Unbounded spawn: one goroutine per element of a range with no channel
	// throttle anywhere in the loop body. Counted worker loops (3-clause
	// for) and ranges over channels are pool shapes, not fan-out.
	if rl, ok := loop.(*ast.RangeStmt); ok {
		overChan := false
		if t := p.TypeOf(rl.X); t != nil {
			_, overChan = t.Underlying().(*types.Chan)
		}
		if !overChan && !containsChanOp(rl.Body) {
			reportg(p, sup, g.Pos(), "goroutine per range element with no semaphore or pool in the loop: unbounded spawn — throttle with a buffered-channel semaphore (the core.RunAll shape) or a fixed worker pool")
		}
	}
	if lit == nil {
		return
	}

	checkStaleCapture(p, sup, g.Pos(), "go", lit, loop)

	// Unlocked shared write in a per-iteration goroutine.
	if loop != nil && !containsLockCall(p, lit.Body) {
		seen := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			var target ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if n.Tok == token.DEFINE {
						if id, ok := lhs.(*ast.Ident); ok && p.Pkg.Info.Defs[id] != nil {
							continue
						}
					}
					checkSharedWrite(p, sup, lit, lhs, seen)
				}
				return true
			case *ast.IncDecStmt:
				target = n.X
			}
			if target != nil {
				checkSharedWrite(p, sup, lit, target, seen)
			}
			return true
		})
	}

	// Send-without-receive leak on an unbuffered function-local channel.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		v, ok := rootObj(p, send.Chan).(*types.Var)
		if !ok || v.Parent() == p.Pkg.Types.Scope() {
			return true
		}
		if v.Pos() <= fd.Body.Lbrace || v.Pos() >= fd.Body.Rbrace {
			return true // parameter or captured from further out: not ours to judge
		}
		if !madeUnbuffered(p, fd, v) || chanEscapes(p, fd, v) || receivedIn(p, fd, lit, v) {
			return true
		}
		reportg(p, sup, send.Pos(), "goroutine sends on unbuffered %s but %s never receives: if the receive path bails first the goroutine blocks forever — buffer the channel (cap 1) or guarantee the receive", v.Name(), fd.Name.Name)
		return true
	})
}

// checkStaleCapture flags a closure capturing a variable the enclosing loop
// body reassigns: every execution observes the final value.
func checkStaleCapture(p *Pass, sup *suppressions, pos token.Pos, kind string, lit *ast.FuncLit, loop ast.Stmt) {
	if loop == nil {
		return
	}
	body := loopBody(loop)
	if body == nil {
		return
	}
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, isVar := p.Pkg.Info.Uses[id].(*types.Var)
		if !isVar || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() > lit.Pos() && v.Pos() < lit.End() {
			return true // closure-local
		}
		if v.Pos() > loop.Pos() && v.Pos() < loop.End() {
			return true // per-iteration (go1.22 loop vars included)
		}
		if v.Parent() == p.Pkg.Types.Scope() {
			return true // package state: globalmut/lockorder territory
		}
		if !assignedOutsideLit(p, body, lit, v) {
			return true
		}
		seen[v] = true
		reportg(p, sup, pos, "%s closure captures %s, which the loop body reassigns: the closure observes the last value, not this iteration's — pass it as an argument or declare it inside the loop", kind, v.Name())
		return true
	})
}

// checkSharedWrite flags one write inside a spawned closure whose target is
// rooted outside the closure and not partitioned by a closure-local index.
func checkSharedWrite(p *Pass, sup *suppressions, lit *ast.FuncLit, target ast.Expr, seen map[types.Object]bool) {
	v, ok := rootObj(p, unwrapWriteTarget(target)).(*types.Var)
	if !ok || seen[v] {
		return
	}
	if v.Pos() > lit.Pos() && v.Pos() < lit.End() {
		return // closure-local
	}
	if indexedByClosureLocal(p, lit, target) {
		return // res[i] with i a closure parameter: per-spawn partition
	}
	seen[v] = true
	reportg(p, sup, target.Pos(), "goroutine closure writes captured %s with no lock in the closure: spawned per iteration, these writes race — guard with a mutex or partition by a per-spawn index", v.Name())
}

// unwrapWriteTarget peels slice expressions (copy(dst[a:b], …)) so rootObj
// sees the container.
func unwrapWriteTarget(e ast.Expr) ast.Expr {
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = se.X
	}
}

// indexedByClosureLocal reports whether an index on the target's access path
// is a closure-local value (parameter or local of lit) — each spawn gets its
// own element.
func indexedByClosureLocal(p *Pass, lit *ast.FuncLit, target ast.Expr) bool {
	found := false
	ast.Inspect(target, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		ast.Inspect(ix.Index, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, isVar := p.Pkg.Info.Uses[id].(*types.Var); isVar {
					if v.Pos() > lit.Pos() && v.Pos() < lit.End() {
						found = true
					}
				}
			}
			return true
		})
		return true
	})
	return found
}

func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// assignedOutsideLit reports whether the loop body rebinds v (bare assign or
// inc/dec) outside the closure itself.
func assignedOutsideLit(p *Pass, body *ast.BlockStmt, lit *ast.FuncLit, v *types.Var) bool {
	hit := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		check := func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && p.ObjectOf(id) == v {
				hit = true
			}
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
	return hit
}

// containsChanOp reports whether the block performs any channel send or
// receive — the lexical signature of a semaphore or work-channel throttle.
func containsChanOp(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return true
	})
	return found
}

// containsLockCall reports whether the block calls Lock/RLock on a sync
// mutex — the lexical signature of guarded shared writes (lockorder verifies
// the pairing and ordering).
func containsLockCall(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if typ, method, _, ok := syncCall(p, call); ok {
			if (typ == "Mutex" || typ == "RWMutex") && (method == "Lock" || method == "RLock") {
				found = true
			}
		}
		return true
	})
	return found
}

// madeUnbuffered reports whether v is provably created as make(chan T) with
// no capacity inside fd. Unknown construction is treated as buffered —
// silence over noise.
func madeUnbuffered(p *Pass, fd *ast.FuncDecl, v *types.Var) bool {
	unbuffered := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || p.ObjectOf(id) != v || i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			ri := i
			if len(as.Rhs) == 1 {
				ri = 0
			}
			if call, ok := as.Rhs[ri].(*ast.CallExpr); ok && isBuiltin(p, call, "make") {
				unbuffered = len(call.Args) == 1
			}
		}
		return true
	})
	return unbuffered
}

// chanEscapes reports whether v is handed to any non-builtin call — once it
// escapes, a receive elsewhere is possible and the leak check stands down.
func chanEscapes(p *Pass, fd *ast.FuncDecl, v *types.Var) bool {
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(p, call, "close") || isBuiltin(p, call, "len") || isBuiltin(p, call, "cap") || isBuiltin(p, call, "make") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && p.ObjectOf(id) == v {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// receivedIn reports whether fd receives from v anywhere outside the sending
// closure: <-v, range v, or a select case.
func receivedIn(p *Pass, fd *ast.FuncDecl, lit *ast.FuncLit, v *types.Var) bool {
	received := false
	matches := func(e ast.Expr) bool {
		return rootObj(p, e) == types.Object(v)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && matches(n.X) {
				received = true
			}
		case *ast.RangeStmt:
			if matches(n.X) {
				received = true
			}
		}
		return true
	})
	return received
}
