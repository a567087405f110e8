// External test package: flow (transitively, via the equivalence checker)
// depends on sim, so importing it from an in-package test would be a cycle.
package sim_test

import (
	"testing"

	"tmi3d/internal/circuits"
	"tmi3d/internal/flow"
	"tmi3d/internal/netlist"
	"tmi3d/internal/sim"
	"tmi3d/internal/tech"
)

// The physical flow must preserve logic: the post-layout netlist (buffers
// inserted, cells resized) is vector-equivalent to the generated source.
func TestFlowPreservesLogic(t *testing.T) {
	src, err := circuits.Generate("DES", 0.07)
	if err != nil {
		t.Fatal(err)
	}
	r, err := flow.Run(flow.Config{Circuit: "DES", Scale: 0.07, Node: tech.N45, Mode: tech.ModeTMI})
	if err != nil {
		t.Fatal(err)
	}
	vectors := randomVectors(src, 4, 99)
	ok, why, err := sim.Equivalent(src, r.Design, vectors)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("flow changed the logic: %s", why)
	}
}

// randomVectors draws n deterministic pseudo-random vectors (xorshift) over
// the design's primary inputs, leaving the clock and tie nets unset.
func randomVectors(d *netlist.Design, n int, seed uint64) []sim.Vector {
	out := make([]sim.Vector, n)
	s := seed*2862933555777941757 + 3037000493
	for i := range out {
		v := sim.Vector{}
		for _, pi := range d.SortedPIs() {
			if pi == "clk" || pi == "tie0" || pi == "tie1" {
				continue
			}
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v[pi] = s&1 == 1
		}
		out[i] = v
	}
	return out
}
