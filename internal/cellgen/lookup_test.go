package cellgen

import (
	"reflect"
	"sync"
	"testing"
)

// sameDef reports whether two definitions are equal field by field, with
// Logic compared by its full truth table over all 2^n input rows (func
// values are not comparable).
func sameDef(t *testing.T, got, want *CellDef) {
	t.Helper()
	if (got.Logic == nil) != (want.Logic == nil) {
		t.Fatalf("%s: Logic nil mismatch", want.Base)
	}
	if got.Logic != nil {
		n := len(want.Inputs)
		args := make([]bool, n)
		for row := 0; row < 1<<n; row++ {
			for i := range args {
				args[i] = row&(1<<i) != 0
			}
			if g, w := got.Logic(args), want.Logic(args); !reflect.DeepEqual(g, w) {
				t.Errorf("%s row %d: Logic %v, want %v", want.Base, row, g, w)
			}
		}
	}
	g, w := *got, *want
	g.Logic, w.Logic = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: fields differ:\n got %+v\nwant %+v", want.Base, g, w)
	}
}

func TestLookupMatchesTemplate(t *testing.T) {
	for _, base := range Functions() {
		d, ok := Lookup(base)
		if !ok {
			t.Fatalf("Lookup(%q) missing", base)
		}
		if again, _ := Lookup(base); again != d {
			t.Errorf("Lookup(%q) returned a different pointer on the second call", base)
		}
		want, _ := Template(base)
		sameDef(t, d, &want)
	}
	if _, ok := Lookup("NOPE"); ok {
		t.Error("Lookup of an unknown function succeeded")
	}
}

// TestTemplateCopyDoesNotAliasLookup mutates Template results the way the
// characterizer and lint -corrupt do and checks the shared view is intact.
func TestTemplateCopyDoesNotAliasLookup(t *testing.T) {
	for _, base := range Functions() {
		shared, _ := Lookup(base)
		mut, _ := Template(base)
		mut.Inputs = append(mut.Inputs, "X")
		mut.Ports = append(mut.Ports, Port{"X", In})
		mut.Transistors[0].W *= 4
		mut.Transistors[0].Gate = "X"
		for _, a := range mut.Arcs {
			a.Side["X"] = true
		}
		want, _ := Template(base)
		sameDef(t, shared, &want)
	}
}

func TestLookupConcurrentFirstUse(t *testing.T) {
	// Start from an unbuilt table so the goroutines race on its first build.
	x1Defs = sync.OnceValue(buildX1Defs)
	const workers = 8
	got := make([][]*CellDef, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for _, base := range Functions() {
				d, _ := Lookup(base)
				got[w] = append(got[w], d)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw a different %s definition", w, got[0][i].Base)
			}
		}
	}
}
