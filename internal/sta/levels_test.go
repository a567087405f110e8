package sta_test

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sta"
	"tmi3d/internal/synth"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// combDrivers returns the combinational instances driving instance ii's
// input pins (its dependencies in the timing graph).
func combDrivers(d *netlist.Design, ii int) []int {
	inst := &d.Instances[ii]
	var out []int
	for _, pin := range inst.SortedPins() {
		switch pin {
		case "Z", "Q", "CO":
			continue
		case "S":
			if inst.Func != "MUX2" {
				continue
			}
		}
		drv := d.Nets[inst.Pins[pin]].Driver.Inst
		if drv >= 0 && d.Instances[drv].Func != "DFF" {
			out = append(out, drv)
		}
	}
	return out
}

// synthesized maps the FPU benchmark at the given scale onto the 45 nm 2D
// library.
func synthesized(t testing.TB, scale float64) (*liberty.Library, *netlist.Design) {
	t.Helper()
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	d, err := circuits.Generate("FPU", scale)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := synth.Run(d, synth.Options{Lib: lib, WLM: wlm.BuildForMode(tech.N45, tech.Mode2D, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	return lib, sr.Design
}

// Levels are longest-path depths: a combinational instance sits one level
// above its deepest combinational driver (level 0 without one), flops sit at
// level 0, and each bucket lists its instances in ascending index order.
func TestLevelsAreLongestPathDepths(t *testing.T) {
	_, d := synthesized(t, 0.1)
	start, order, err := sta.LevelBuckets(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(d.Instances) {
		t.Fatalf("%d instances bucketed, design has %d", len(order), len(d.Instances))
	}
	level := make([]int32, len(d.Instances))
	for l := 0; l+1 < len(start); l++ {
		bucket := order[start[l]:start[l+1]]
		if len(bucket) == 0 {
			t.Fatalf("level %d is empty", l)
		}
		for k, ii := range bucket {
			if k > 0 && bucket[k-1] >= ii {
				t.Fatalf("level %d not in ascending index order at %d", l, k)
			}
			level[ii] = int32(l)
		}
	}
	for ii := range d.Instances {
		want := int32(0)
		if d.Instances[ii].Func != "DFF" {
			for _, drv := range combDrivers(d, ii) {
				if level[drv]+1 > want {
					want = level[drv] + 1
				}
			}
		}
		if level[ii] != want {
			t.Fatalf("instance %d (%s) at level %d, want %d", ii, d.Instances[ii].Func, level[ii], want)
		}
	}
}

// checkTopological fails unless order lists every instance once, each after
// all of its combinational drivers.
func checkTopological(t *testing.T, d *netlist.Design, order []int) {
	t.Helper()
	pos := make([]int, len(d.Instances))
	for i := range pos {
		pos[i] = -1
	}
	for k, ii := range order {
		if pos[ii] >= 0 {
			t.Fatalf("instance %d ordered twice", ii)
		}
		pos[ii] = k
	}
	for ii := range d.Instances {
		if pos[ii] < 0 {
			t.Fatalf("instance %d missing from the order", ii)
		}
		if d.Instances[ii].Func == "DFF" {
			continue
		}
		for _, drv := range combDrivers(d, ii) {
			if pos[drv] > pos[ii] {
				t.Fatalf("instance %d ordered before its driver %d", ii, drv)
			}
		}
	}
}

// Levelize works on mapped and unmapped netlists alike: it keys on the
// logical function, not a library cell.
func TestLevelizeTopologicalOrder(t *testing.T) {
	_, mapped := synthesized(t, 0.1)
	order, err := sta.Levelize(mapped)
	if err != nil {
		t.Fatal(err)
	}
	checkTopological(t, mapped, order)

	unmapped, err := circuits.Generate("FPU", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for ii := range unmapped.Instances {
		if unmapped.Instances[ii].CellName != "" {
			t.Fatalf("generated instance %d is already mapped", ii)
		}
	}
	order, err = sta.Levelize(unmapped)
	if err != nil {
		t.Fatal(err)
	}
	checkTopological(t, unmapped, order)
}
