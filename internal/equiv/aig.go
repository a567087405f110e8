// Package equiv is the formal logical equivalence checker (LEC) of the flow
// — the Conformal/Formality box of the paper's Fig 1. It proves, rather than
// samples, that synthesis, placement optimization and post-route optimization
// never change circuit function.
//
// The engine has three layers: an and-inverter graph (AIG) that compiles any
// gate-level design into two-input AND nodes with complemented edges, using
// structural hashing, constant propagation and two-level rewriting; a
// from-scratch CDCL SAT solver (watched literals, VSIDS-lite decisions,
// first-UIP clause learning, restarts) that discharges the miter cones the
// AIG cannot collapse structurally; and a sequential front end that matches
// flip-flops between the two designs (by name, then by fanin-cone signature)
// and reduces sequential equivalence to per-cone combinational checks,
// filtered by random simulation before SAT is invoked.
package equiv

import "fmt"

// Lit is an AIG edge: a node index shifted left once, with the low bit set
// when the edge is complemented. Node 0 is the constant-false node, so the
// literal 0 is constant false and literal 1 constant true.
type Lit uint32

// Constant literals.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// Not complements a literal.
func (l Lit) Not() Lit { return l ^ 1 }

// node returns the node index of the literal.
func (l Lit) node() uint32 { return uint32(l) >> 1 }

// inverted reports whether the edge is complemented.
func (l Lit) inverted() bool { return l&1 == 1 }

// nodeKind distinguishes the three AIG node types.
const (
	kindConst = iota
	kindPI
	kindAnd
)

type aigNode struct {
	kind   uint8
	f0, f1 Lit // fanins of AND nodes (f0.node <= f1.node canonically)
}

// AIG is a structurally hashed and-inverter graph. Nodes are append-only and
// topologically ordered by construction (fanins always precede the node), so
// linear sweeps evaluate the whole graph.
type AIG struct {
	nodes []aigNode
	// hash is the structural-hashing table: open addressing with linear
	// probing over AND-node indices, keyed by the node's fanin pair. 0 (the
	// constant node, never an AND) marks an empty slot. The length is a
	// power of two, sized from the caller's estimate of the AND count and
	// kept at least twice the AND count by doubling.
	hash []uint32
	pis  []uint32 // node indices of primary inputs, in creation order
}

// hashSlots is the smallest structural-hashing table.
const hashSlots = 1 << 10

// newAIG creates an AIG whose hash table holds ands AND nodes before it
// grows. The size changes no node's number, only how often the table
// doubles on the way.
func newAIG(ands int) *AIG {
	slots := hashSlots
	for slots < 2*ands {
		slots *= 2
	}
	return &AIG{
		nodes: []aigNode{{kind: kindConst}},
		hash:  make([]uint32, slots),
	}
}

// lookup returns the AND node with fanins (a, b), or the empty slot where it
// belongs. Probing starts at a multiplicative hash of the pair.
func (g *AIG) lookup(a, b Lit) (node uint32, slot int) {
	mask := len(g.hash) - 1
	h := (uint64(a)<<32 | uint64(b)) * 0x9e3779b97f4a7c15
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		idx := g.hash[i]
		if idx == 0 {
			return 0, i
		}
		if n := &g.nodes[idx]; n.f0 == a && n.f1 == b {
			return idx, i
		}
	}
}

// grow doubles the table and reinserts every AND node.
func (g *AIG) grow() {
	old := g.hash
	g.hash = make([]uint32, 2*len(old))
	for _, idx := range old {
		if idx != 0 {
			n := &g.nodes[idx]
			_, i := g.lookup(n.f0, n.f1)
			g.hash[i] = idx
		}
	}
}

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return len(g.pis) }

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// PI appends a new primary input and returns its positive literal. The
// returned literal's PI index (see PIIndex) is NumPIs()-1.
func (g *AIG) PI() Lit {
	idx := uint32(len(g.nodes))
	g.nodes = append(g.nodes, aigNode{kind: kindPI})
	g.pis = append(g.pis, idx)
	return Lit(idx << 1)
}

// And returns a literal for a AND b, applying constant propagation, the
// one-level simplifications, the two-level rewriting rules of Brummayer &
// Biere ("Local Two-Level And-Inverter Graph Minimization without
// Blowup"), and structural hashing, in that order.
func (g *AIG) And(a, b Lit) Lit {
	// Constant propagation and trivial one-level rules.
	if a == ConstFalse || b == ConstFalse || a == b.Not() {
		return ConstFalse
	}
	if a == ConstTrue {
		return b
	}
	if b == ConstTrue || a == b {
		return a
	}

	// Two-level rules: inspect AND-node fanins of a and b.
	if l, ok := g.rewrite(a, b); ok {
		return l
	}
	if l, ok := g.rewrite(b, a); ok {
		return l
	}

	// Canonical order for hashing.
	if a.node() > b.node() || (a.node() == b.node() && a > b) {
		a, b = b, a
	}
	idx, slot := g.lookup(a, b)
	if idx != 0 {
		return Lit(idx << 1)
	}
	idx = uint32(len(g.nodes))
	g.nodes = append(g.nodes, aigNode{kind: kindAnd, f0: a, f1: b})
	g.hash[slot] = idx
	if 2*g.NumAnds() > len(g.hash) {
		g.grow()
	}
	return Lit(idx << 1)
}

// rewrite applies the asymmetric two-level rules for And(a, b) where a is
// examined as an AND node (possibly complemented). It reports whether a
// simplification fired.
func (g *AIG) rewrite(a, b Lit) (Lit, bool) {
	n := &g.nodes[a.node()]
	if n.kind != kindAnd {
		return 0, false
	}
	a0, a1 := n.f0, n.f1
	if !a.inverted() {
		// Contradiction: (a0·a1)·b = 0 when b complements a fanin.
		if b == a0.Not() || b == a1.Not() {
			return ConstFalse, true
		}
		// Idempotence: (a0·a1)·b = a when b is a fanin.
		if b == a0 || b == a1 {
			return a, true
		}
	} else {
		// Subsumption: ¬(a0·a1)·b = b when b complements a fanin
		// (b ≤ ¬a0 ⇒ a0·a1 = 0 under b).
		if b == a0.Not() || b == a1.Not() {
			return b, true
		}
		// Substitution: ¬(a0·a1)·a0 = a0·¬a1 (and symmetrically).
		if b == a0 {
			return g.And(a0, a1.Not()), true
		}
		if b == a1 {
			return g.And(a1, a0.Not()), true
		}
	}
	// Symmetric two-level rules need b to be an AND node too.
	m := &g.nodes[b.node()]
	if m.kind != kindAnd {
		return 0, false
	}
	b0, b1 := m.f0, m.f1
	if !a.inverted() && !b.inverted() {
		// Contradiction across the pair: shared complemented fanin.
		if a0 == b0.Not() || a0 == b1.Not() || a1 == b0.Not() || a1 == b1.Not() {
			return ConstFalse, true
		}
	}
	if a.inverted() && !b.inverted() {
		// Subsumption: ¬(a0·a1)·(b0·b1) = b when a shares a complemented
		// fanin with b's fanins — already covered above via b literal rules
		// only when b equals the fanin; here check fanin-of-b matches.
		if a0 == b0.Not() || a0 == b1.Not() || a1 == b0.Not() || a1 == b1.Not() {
			// ¬a contains ¬(x·y); b contains x and also z. Then
			// ¬(a0·a1)·b = b · ¬(a0·a1). If a0 == ¬b0 then a0·a1 has a
			// factor that is false under b, so ¬(a0·a1) = 1 under b: result b.
			return b, true
		}
	}
	if a.inverted() && b.inverted() {
		// Resolution: ¬(x·y)·¬(x·¬y) = ¬x.
		if a0 == b0 && a1 == b1.Not() {
			return a0.Not(), true
		}
		if a0 == b1 && a1 == b0.Not() {
			return a0.Not(), true
		}
		if a1 == b0 && a0 == b1.Not() {
			return a1.Not(), true
		}
		if a1 == b1 && a0 == b0.Not() {
			return a1.Not(), true
		}
	}
	return 0, false
}

// Or returns a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a XOR b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns s ? b : a (matching the MUX2 cell's Z = S ? B : A).
func (g *AIG) Mux(a, b, s Lit) Lit {
	return g.Or(g.And(s, b), g.And(s.Not(), a))
}

// Eval evaluates a set of literals under one assignment of PI values
// (indexed like the pis slice, i.e. PI creation order).
func (g *AIG) Eval(piVals []bool, lits []Lit) []bool {
	vals := make([]bool, len(g.nodes))
	pi := 0
	for i := 1; i < len(g.nodes); i++ {
		n := &g.nodes[i]
		switch n.kind {
		case kindPI:
			vals[i] = piVals[pi]
			pi++
		case kindAnd:
			vals[i] = litVal(vals, n.f0) && litVal(vals, n.f1)
		}
	}
	out := make([]bool, len(lits))
	for i, l := range lits {
		out[i] = litVal(vals, l)
	}
	return out
}

func litVal(vals []bool, l Lit) bool { return vals[l.node()] != l.inverted() }

// SimWords runs 64-way parallel random simulation of the whole graph: piWords
// supplies one 64-bit pattern word per PI (creation order), and the returned
// slice holds the computed word of every node. Literal w's word is
// words[w.node()] ^ mask(w.inverted()).
func (g *AIG) SimWords(piWords []uint64) []uint64 {
	words := make([]uint64, len(g.nodes))
	pi := 0
	for i := 1; i < len(g.nodes); i++ {
		n := &g.nodes[i]
		switch n.kind {
		case kindPI:
			words[i] = piWords[pi]
			pi++
		case kindAnd:
			words[i] = litWord(words, n.f0) & litWord(words, n.f1)
		}
	}
	return words
}

func litWord(words []uint64, l Lit) uint64 {
	w := words[l.node()]
	if l.inverted() {
		return ^w
	}
	return w
}

// LitWord returns the simulated word of a literal given a SimWords result.
func LitWord(words []uint64, l Lit) uint64 { return litWord(words, l) }

// PIIndex returns the PI ordinal of a literal's node, or -1 if the node is
// not a primary input.
func (g *AIG) PIIndex(l Lit) int {
	n := l.node()
	if int(n) >= len(g.nodes) || g.nodes[n].kind != kindPI {
		return -1
	}
	// PIs are appended in order; binary search the pis slice.
	lo, hi := 0, len(g.pis)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case g.pis[mid] == n:
			return mid
		case g.pis[mid] < n:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return -1
}

// cone collects the node indices of the transitive fanin cone of the given
// literals (constant node excluded), in topological order.
func (g *AIG) cone(lits []Lit) []uint32 {
	seen := make(map[uint32]bool, 64)
	var stack []uint32
	for _, l := range lits {
		if n := l.node(); n != 0 && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for i := 0; i < len(stack); i++ {
		n := &g.nodes[stack[i]]
		if n.kind != kindAnd {
			continue
		}
		for _, f := range [2]Lit{n.f0, n.f1} {
			if fn := f.node(); fn != 0 && !seen[fn] {
				seen[fn] = true
				stack = append(stack, fn)
			}
		}
	}
	// Sort ascending: append-only construction makes index order topological.
	sortU32(stack)
	return stack
}

func sortU32(a []uint32) {
	// Small shell sort avoids pulling in sort for a hot path.
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

// String summarizes the graph.
func (g *AIG) String() string {
	return fmt.Sprintf("aig{pis: %d, ands: %d}", g.NumPIs(), g.NumAnds())
}
