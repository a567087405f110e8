package cellgen

import (
	"sort"
	"sync"
)

// strengths lists the drive strengths generated per function. The totals add
// up to the 66-cell library the paper's supplement describes (Section S1).
var strengths = map[string][]int{
	"INV":    {1, 2, 4, 8, 16, 32},
	"BUF":    {1, 2, 4, 8, 16, 32},
	"CLKBUF": {1, 2, 4},
	"NAND2":  {1, 2, 4},
	"NAND3":  {1, 2, 4},
	"NAND4":  {1, 2, 4},
	"NOR2":   {1, 2, 4},
	"NOR3":   {1, 2, 4},
	"NOR4":   {1, 2, 4},
	"AND2":   {1, 2, 4},
	"OR2":    {1, 2, 4},
	"XOR2":   {1, 2, 4},
	"XNOR2":  {1, 2, 4},
	"MUX2":   {1, 2, 4},
	"AOI21":  {1, 2, 4},
	"AOI22":  {1, 2},
	"OAI21":  {1, 2, 4},
	"OAI22":  {1, 2},
	"HA":     {1, 2},
	"FA":     {1, 2},
	"DFF":    {1, 2, 4, 8},
}

// templates maps function names to their X1 builders.
var templates = map[string]func() CellDef{
	"INV":    tINV,
	"BUF":    tBUF,
	"CLKBUF": tCLKBUF,
	"NAND2":  func() CellDef { return tNAND(2) },
	"NAND3":  func() CellDef { return tNAND(3) },
	"NAND4":  func() CellDef { return tNAND(4) },
	"NOR2":   func() CellDef { return tNOR(2) },
	"NOR3":   func() CellDef { return tNOR(3) },
	"NOR4":   func() CellDef { return tNOR(4) },
	"AND2":   tAND2,
	"OR2":    tOR2,
	"XOR2":   tXOR2,
	"XNOR2":  tXNOR2,
	"MUX2":   tMUX2,
	"AOI21":  tAOI21,
	"AOI22":  tAOI22,
	"OAI21":  tOAI21,
	"OAI22":  tOAI22,
	"HA":     tHA,
	"FA":     tFA,
	"DFF":    tDFF,
}

// Functions returns the function (base) names in the library, sorted.
func Functions() []string {
	names := make([]string, 0, len(templates))
	for n := range templates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Template returns a freshly built X1 definition for a function name. The
// caller owns the copy and may modify it; read-only callers use Lookup.
func Template(base string) (CellDef, bool) {
	f, ok := templates[base]
	if !ok {
		return CellDef{}, false
	}
	d := f()
	d.Name = d.Base + "_X1"
	d.Strength = 1
	return d, true
}

// x1Defs is the process-wide table of X1 definitions behind Lookup, built
// once from Template and never written after publication.
var x1Defs = sync.OnceValue(buildX1Defs)

func buildX1Defs() map[string]*CellDef {
	defs := make(map[string]*CellDef, len(templates))
	for _, fn := range Functions() {
		d, _ := Template(fn)
		defs[fn] = &d
	}
	return defs
}

// Lookup returns the shared X1 definition for a function name — the same
// pointer on every call. The definition is read-only: its slices, Side maps
// and fields are seen by every caller in the process, so a caller that needs
// to modify one takes its own copy from Template instead.
func Lookup(base string) (*CellDef, bool) {
	d, ok := x1Defs()[base]
	return d, ok
}

// Library returns every cell definition (all functions × strengths), sorted
// by name.
func Library() []CellDef {
	var out []CellDef
	for _, base := range Functions() {
		x1, _ := Template(base)
		for _, k := range strengths[base] {
			out = append(out, scaleStrength(x1, k))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Strengths returns the drive strengths available for a function.
func Strengths(base string) []int {
	s := strengths[base]
	out := make([]int, len(s))
	copy(out, s)
	return out
}
