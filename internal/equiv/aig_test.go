package equiv

import (
	"testing"

	"tmi3d/internal/cellgen"
)

// TestAIGBaseFunctions checks every explicit base-function builder against
// the cellgen template's Logic closure over all input combinations, and the
// truth-table fallback against itself for coverage.
func TestAIGBaseFunctions(t *testing.T) {
	for _, fn := range cellgen.Functions() {
		def, _ := cellgen.Template(fn)
		if def.Seq {
			continue
		}
		builder, hasBuilder := baseFuncs[fn]
		g := NewAIG()
		in := make([]Lit, len(def.Inputs))
		for i := range in {
			in[i] = g.PI()
		}
		built := make([]Lit, len(def.Outputs))
		fallback := make([]Lit, len(def.Outputs))
		if hasBuilder {
			builder(g, in, built)
		}
		truthTableAIG(g, &def, in, fallback)

		rows := 1 << len(def.Inputs)
		args := make([]bool, len(def.Inputs))
		piVals := make([]bool, len(def.Inputs))
		for row := 0; row < rows; row++ {
			for i := range args {
				args[i] = row&(1<<i) != 0
				piVals[i] = args[i]
			}
			want := def.Logic(args)
			if hasBuilder {
				got := g.Eval(piVals, built)
				for o := range want {
					if got[o] != want[o] {
						t.Errorf("%s row %d output %d: builder=%v cellgen=%v",
							fn, row, o, got[o], want[o])
					}
				}
			}
			got := g.Eval(piVals, fallback)
			for o := range want {
				if got[o] != want[o] {
					t.Errorf("%s row %d output %d: truth-table=%v cellgen=%v",
						fn, row, o, got[o], want[o])
				}
			}
		}
		// Builder and fallback must also hash to the same structure often
		// enough to matter; at minimum they are functionally equal, checked
		// above. Spot-check structural collapse for the simple gates.
		if hasBuilder && len(def.Inputs) <= 2 && len(built) == 1 {
			m := g.Xor(built[0], fallback[0])
			if sat, _, _ := solveMiter(g, built[0], fallback[0]); sat {
				t.Errorf("%s: builder and truth-table AIGs differ (miter %v)", fn, m)
			}
		}
	}
}

// TestAIGStructuralHashing verifies shared subexpressions collapse and the
// two-level rewrite rules fire.
func TestAIGStructuralHashing(t *testing.T) {
	g := NewAIG()
	a, b := g.PI(), g.PI()
	if g.And(a, b) != g.And(b, a) {
		t.Error("And not commutative under hashing")
	}
	if g.And(a, a) != a {
		t.Error("idempotence not folded")
	}
	if g.And(a, a.Not()) != ConstFalse {
		t.Error("contradiction not folded")
	}
	if g.And(a, ConstTrue) != a {
		t.Error("AND with true not folded")
	}
	if g.And(a, ConstFalse) != ConstFalse {
		t.Error("AND with false not folded")
	}
	// Substitution: a ∧ ¬(a∧b) = a ∧ ¬b.
	if got, want := g.And(a, g.And(a, b).Not()), g.And(a, b.Not()); got != want {
		t.Errorf("substitution rewrite missed: got %v want %v", got, want)
	}
	// Double inversion through literals.
	if a.Not().Not() != a {
		t.Error("double negation not identity")
	}
	// Xor of equal literals.
	if g.Xor(a, a) != ConstFalse || g.Xor(a, a.Not()) != ConstTrue {
		t.Error("xor constant folding failed")
	}
}

// TestAIGSimWordsMatchesEval cross-checks 64-way parallel simulation against
// scalar evaluation on a small random circuit.
func TestAIGSimWordsMatchesEval(t *testing.T) {
	g := NewAIG()
	pis := make([]Lit, 6)
	for i := range pis {
		pis[i] = g.PI()
	}
	f1 := g.Or(g.And(pis[0], pis[1]), g.Xor(pis[2], pis[3]))
	f2 := g.Mux(pis[4], f1, g.And(pis[5], pis[0]).Not())
	lits := []Lit{f1, f2}

	words := make([]uint64, len(pis))
	rng := uint64(12345)
	for i := range words {
		rng = xorshift(rng)
		words[i] = rng
	}
	ws := g.SimWords(words)
	piVals := make([]bool, len(pis))
	for bit := 0; bit < 64; bit++ {
		for i := range piVals {
			piVals[i] = words[i]>>uint(bit)&1 == 1
		}
		want := g.Eval(piVals, lits)
		for li, l := range lits {
			got := LitWord(ws, l)>>uint(bit)&1 == 1
			if got != want[li] {
				t.Fatalf("bit %d lit %d: SimWords=%v Eval=%v", bit, li, got, want[li])
			}
		}
	}
}

// TestSolveMiterFindsDifference checks SAT counterexample extraction on a
// deliberately inequivalent pair (NAND vs NOR of the same inputs).
func TestSolveMiterFindsDifference(t *testing.T) {
	g := NewAIG()
	a, b := g.PI(), g.PI()
	nand := g.And(a, b).Not()
	nor := g.Or(a, b).Not()
	sat, model, _ := solveMiter(g, nand, nor)
	if !sat {
		t.Fatal("NAND and NOR should differ")
	}
	piVals := []bool{model[0], model[1]}
	got := g.Eval(piVals, []Lit{nand, nor})
	if got[0] == got[1] {
		t.Fatalf("model %v does not distinguish NAND/NOR", model)
	}

	// And an equivalent pair through different structure: ¬(¬a ∨ ¬b) = a∧b.
	demorgan := g.Or(a.Not(), b.Not()).Not()
	if sat, _, _ := solveMiter(g, demorgan, g.And(a, b)); sat {
		t.Fatal("De Morgan pair should be equivalent")
	}
}
