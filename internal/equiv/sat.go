package equiv

// A from-scratch CDCL SAT solver: two-watched-literal propagation, a
// VSIDS-lite decision heuristic (exponentially decayed activity with a
// binary heap), first-UIP conflict-driven clause learning with non-
// chronological backjumping, phase saving, and geometric restarts. It is
// deliberately small — the miter cones of a gate-level LEC are shallow and
// the AIG front end discharges almost everything structurally — but it is a
// complete solver and is exercised against brute-force enumeration in the
// test suite.

// SLit is a solver literal: variable index shifted left once, low bit set
// for negation (the same packing as AIG literals).
type SLit uint32

// MkSLit builds a literal from a variable index and a sign (true = negated).
func MkSLit(v int, neg bool) SLit {
	l := SLit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l SLit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l SLit) Neg() bool { return l&1 == 1 }

// Not complements the literal.
func (l SLit) Not() SLit { return l ^ 1 }

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

type clause struct {
	lits    []SLit
	learned bool
}

type watcher struct {
	c *clause
	// blocker is a literal of the clause; if it is already true the clause
	// is satisfied and the watch list walk can skip it.
	blocker SLit
}

// Solver is a CDCL SAT solver over variables created with NewVar.
type Solver struct {
	clauses []*clause
	learned []*clause
	watches [][]watcher // indexed by literal

	assign   []int8 // per variable: lTrue/lFalse/lUndef
	level    []int32
	reason   []*clause
	phase    []bool // saved phase per variable
	activity []float64
	varInc   float64

	heap    []int32 // binary max-heap of variables by activity
	heapPos []int32 // var → heap index, -1 when absent

	trail    []SLit
	trailLim []int
	qhead    int

	// Stats counts solver work for reports and benchmarks.
	Stats struct {
		Decisions    int64
		Propagations int64
		Conflicts    int64
		Learned      int64
		Restarts     int64
	}

	unsat bool // a top-level empty clause was added
}

// NewSolver creates an empty solver.
func NewSolver() *Solver {
	return &Solver{varInc: 1}
}

// NewVar adds a variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(int32(v))
	return v
}

// value returns the literal's current value.
func (s *Solver) value(l SLit) int8 {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -v
	}
	return v
}

// Value returns the model value of a variable after a true Solve result.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// AddClause adds a clause over the given literals. It must be called before
// Solve (top level only). It returns false if the formula is already
// trivially unsatisfiable.
func (s *Solver) AddClause(lits ...SLit) bool {
	if s.unsat {
		return false
	}
	// Top-level simplification: drop false/duplicate literals, detect
	// satisfied and tautological clauses.
	out := lits[:0:0]
	seen := map[SLit]bool{}
	for _, l := range lits {
		switch {
		case s.value(l) == lTrue, seen[l.Not()]:
			return true // already satisfied / tautology
		case s.value(l) == lFalse, seen[l]:
			continue
		default:
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

// enqueue assigns a literal true with the given reason clause.
func (s *Solver) enqueue(l SLit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation over the watched literals; it returns the
// conflicting clause, or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit watchers of p (clauses watching ¬p)
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize: watched literal being falsified at index 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				// Conflict: keep remaining watchers and bail out.
				kept = append(kept, ws[wi+1:]...)
				confl = c
				s.qhead = len(s.trail)
				break
			}
			s.Stats.Propagations++
			s.enqueue(first, c)
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]SLit, int) {
	learnt := []SLit{0} // slot 0 reserved for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p SLit
	haveP := false
	idx := len(s.trail) - 1
	reason := confl

	for {
		for _, q := range reason.lits {
			if haveP && q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		haveP = true
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		reason = s.reason[v]
	}
	learnt[0] = p.Not()

	// Backjump level: the highest level among the non-asserting literals.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	return learnt, bt
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= lo; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:lo]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar raises a variable's activity (VSIDS).
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) decayActivities() { s.varInc /= 0.95 }

// pickBranchVar pops the highest-activity unassigned variable.
func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := int(s.heap[0])
		s.heapRemoveTop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// Solve decides satisfiability. On a true result, Value reports a model.
func (s *Solver) Solve() bool {
	if s.unsat {
		return false
	}
	if confl := s.propagate(); confl != nil {
		s.unsat = true
		return false
	}
	conflictBudget := int64(100)
	for {
		switch res := s.search(conflictBudget); res {
		case lTrue:
			s.cancelUntilModelKept()
			return true
		case lFalse:
			return false
		}
		// Budget exhausted: restart with a larger budget (geometric).
		s.Stats.Restarts++
		s.cancelUntil(0)
		conflictBudget = conflictBudget * 3 / 2
	}
}

// cancelUntilModelKept leaves the assignment intact for Value queries; a
// subsequent Solve would need a reset, which this solver does not support
// (one-shot use per miter, as the checker does).
func (s *Solver) cancelUntilModelKept() {}

// search runs CDCL until sat, unsat, or the conflict budget is spent.
func (s *Solver) search(budget int64) int8 {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learned: true}
				s.learned = append(s.learned, c)
				s.Stats.Learned++
				s.watch(c)
				s.enqueue(learnt[0], c)
			}
			s.decayActivities()
			continue
		}
		if conflicts >= budget {
			return lUndef
		}
		v := s.pickBranchVar()
		if v < 0 {
			return lTrue // all variables assigned, no conflict: model found
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkSLit(v, !s.phase[v]), nil)
	}
}

// ---- activity heap ----

func (s *Solver) heapLess(i, j int32) bool {
	return s.activity[s.heap[i]] > s.activity[s.heap[j]]
}

func (s *Solver) heapSwap(i, j int32) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = i
	s.heapPos[s.heap[j]] = j
}

func (s *Solver) heapUp(i int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			break
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Solver) heapDown(i int32) {
	n := int32(len(s.heap))
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && s.heapLess(l, best) {
			best = l
		}
		if r < n && s.heapLess(r, best) {
			best = r
		}
		if best == i {
			return
		}
		s.heapSwap(i, best)
		i = best
	}
}

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapRemoveTop() {
	v := s.heap[0]
	last := int32(len(s.heap) - 1)
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
}
