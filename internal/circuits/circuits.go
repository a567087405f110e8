package circuits

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

// Names lists the benchmark circuits in the paper's order.
var Names = []string{"FPU", "AES", "LDPC", "DES", "M256"}

// Check returns nil for a name in Names and otherwise an error that lists
// them.
func Check(name string) error {
	if slices.Contains(Names, name) {
		return nil
	}
	return fmt.Errorf("circuits: unknown benchmark %q (one of %s)", name, strings.Join(Names, ", "))
}

// TargetClockPs returns the target clock period of Table 12 for a circuit at
// a node, in picoseconds.
func TargetClockPs(name string, node tech.Node) (float64, error) {
	if err := Check(name); err != nil {
		return 0, err
	}
	t45 := map[string]float64{
		"FPU": 1800, "AES": 800, "LDPC": 2400, "DES": 1000, "M256": 2400,
	}
	t7 := map[string]float64{
		"FPU": 720, "AES": 270, "LDPC": 900, "DES": 300, "M256": 1000,
	}
	m := t45
	if node == tech.N7 {
		m = t7
	}
	return m[name], nil
}

// TargetUtilization returns the placement utilization target of Section S6:
// ≈80% industry-standard, lowered for the wire-congested LDPC (33%) and
// M256 (68%).
func TargetUtilization(name string) float64 {
	switch name {
	case "LDPC":
		return 0.33
	case "M256":
		return 0.68
	default:
		return 0.80
	}
}

// generators builds each of Names.
var generators = map[string]func(scale float64) (*builderResult, error){
	"FPU": GenerateFPU, "AES": GenerateAES, "LDPC": GenerateLDPC, "DES": GenerateDES, "M256": GenerateM256,
}

// Generate builds a benchmark circuit at the given scale (1.0 = the paper's
// full size) with the 45nm target clock preset.
func Generate(name string, scale float64) (*netlist.Design, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("circuits: non-positive scale %g", scale)
	}
	if err := Check(name); err != nil {
		return nil, err
	}
	res, err := generators[name](scale)
	if err != nil {
		return nil, err
	}
	clock, err := TargetClockPs(name, tech.N45)
	if err != nil {
		return nil, err
	}
	return res.b.finish(clock)
}

// sinkDangling ties any undriven-sink net into a checksum output so the
// design validates: generators legitimately produce unused carries and
// helper nets (as RTL does), which synthesis would otherwise prune.
func (b *builder) sinkDangling() {
	d := b.d
	sunk := make([]bool, len(d.Nets))
	for i := range d.Nets {
		sunk[i] = len(d.Nets[i].Sinks) > 0
	}
	for _, v := range d.POs {
		sunk[v] = true
	}
	var dangling []string
	for i := range d.Nets {
		if !sunk[i] && d.Nets[i].Driver.Inst != -2 {
			dangling = append(dangling, d.Nets[i].Name)
		}
	}
	sort.Strings(dangling)
	if len(dangling) == 0 {
		return
	}
	chk := b.xorTree(dangling)
	d.AddPO("chksum", chk)
}
