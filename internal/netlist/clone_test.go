package netlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// chain builds a design of n inverters in a ring of DFF-cut stages, with a
// fixed port count whatever n is: 4 primary inputs, 4 primary outputs and a
// clock.
func chain(n int) *Design {
	d := New(fmt.Sprintf("chain%d", n))
	for p := 0; p < 4; p++ {
		d.AddPI(fmt.Sprintf("in%d", p), fmt.Sprintf("n%d_0", p))
	}
	for i := 0; i < n; i++ {
		lane := i % 4
		in, out := fmt.Sprintf("n%d_%d", lane, i/4), fmt.Sprintf("n%d_%d", lane, i/4+1)
		if i%8 == 7 {
			d.AddInstance(fmt.Sprintf("r%d", i), "DFF", map[string]string{"D": in, "CK": "clk", "Q": out}, "Q")
		} else {
			d.AddInstance(fmt.Sprintf("g%d", i), "INV", map[string]string{"A": in, "Z": out}, "Z")
		}
	}
	for p := 0; p < 4; p++ {
		d.AddPO(fmt.Sprintf("out%d", p), fmt.Sprintf("n%d_%d", p, (n-1)/4+1))
	}
	d.SetClock("clk")
	return d
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every mutator applied to a clone leaves the source's bytes alone, and the
// clone's nets and instances the mutations do not touch keep their bytes
// too. Pin and sink lists share arenas inside the clone, so this also
// catches an append that writes into a neighbouring instance's pins or net's
// sinks.
func TestCloneIsolation(t *testing.T) {
	src := chain(64)
	before := mustJSON(t, src)
	c := src.Clone()
	if got := mustJSON(t, c); !bytes.Equal(got, before) {
		t.Fatal("clone encodes differently from its source")
	}
	untouched := make([][]byte, len(c.Nets))
	for i := range c.Nets {
		untouched[i] = mustJSON(t, netJSON(c.Nets[i]))
	}

	// Pins.Set: rebind an existing pin and add a new one (an insertion
	// reallocates the arena-cut list).
	g := 10 // an INV: A = n2_2, Z = n2_3
	a, _ := c.Instances[g].Pins.Net("A")
	z, _ := c.Instances[g].Pins.Net("Z")
	c.Instances[g].Pins.Set("A", z)
	c.Instances[g].Pins.Set("B", a)
	// AddNet and AddInstance: a fresh net and a gate reading the clone's
	// first net.
	extra := c.AddNet("extra")
	c.AddInstance("added", "BUF", map[string]string{"A": c.Nets[0].Name, "Z": "extra"}, "Z")
	// InsertBuffer: split the output net of instance 20 behind a buffer.
	out20, _ := c.Instances[20].Pins.Net("Z")
	buffered := c.Nets[out20].Sinks
	c.InsertBuffer(out20, append([]PinRef(nil), buffered...), "BUF", "BUF_X1")
	// RemoveInstance and RemoveNet: drop instance 30 and its dangling output.
	// Instance 30's sinks are rebound to its input, and the last instance
	// moves into its slot.
	out30, _ := c.Instances[30].Pins.Net("Z")
	touchedInst := map[int]bool{g: true, 30: true, len(src.Instances) - 1: true}
	for _, s := range append(append([]PinRef(nil), buffered...), c.Nets[out30].Sinks...) {
		touchedInst[s.Inst] = true
	}
	for _, s := range append([]PinRef(nil), c.Nets[out30].Sinks...) {
		in30, _ := c.Instances[30].Pins.Net("A")
		removeSinkRef(&c.Nets[out30], s)
		c.Instances[s.Inst].Pins.Set(s.Pin, in30)
		c.Nets[in30].Sinks = append(c.Nets[in30].Sinks, s)
	}
	if err := c.RemoveInstance(30); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNet(out30); err != nil {
		t.Fatal(err)
	}
	// Appending a sink to every clone net exercises each arena-cut list.
	for i := range c.Nets {
		c.Nets[i].Sinks = append(c.Nets[i].Sinks, PinRef{Inst: -1, Pin: "probe"})
	}

	if after := mustJSON(t, src); !bytes.Equal(after, before) {
		t.Fatal("mutating the clone changed the source's bytes")
	}
	for i := range src.Instances {
		if touchedInst[i] {
			continue
		}
		if got, want := mustJSON(t, c.Instances[i]), mustJSON(t, src.Instances[i]); !bytes.Equal(got, want) {
			t.Errorf("untouched instance %d changed in the clone:\n got %s\nwant %s", i, got, want)
		}
	}
	if src.NetByName("extra") != -1 || c.NetByName("extra") != extra {
		t.Fatalf("name index shared: source %d, clone %d, want -1, %d", src.NetByName("extra"), c.NetByName("extra"), extra)
	}
	touched := map[string]bool{c.Nets[0].Name: true, "n2_2": true, "n2_3": true, "extra": true}
	for _, name := range []string{src.Nets[out20].Name, src.Nets[out30].Name} {
		touched[name] = true
	}
	for _, i := range []int{20, 30} {
		in, _ := src.Instances[i].Pins.Net("A")
		touched[src.Nets[in].Name] = true
	}
	checked := 0
	for i, n := range src.Nets {
		ci := c.NetByName(n.Name)
		if touched[n.Name] || ci < 0 || i != ci {
			continue
		}
		cn := c.Nets[ci]
		cn.Sinks = cn.Sinks[:len(cn.Sinks)-1] // drop the probe
		if got := mustJSON(t, netJSON(cn)); !bytes.Equal(got, untouched[i]) {
			t.Errorf("untouched net %q changed in the clone:\n got %s\nwant %s", n.Name, got, untouched[i])
		}
		checked++
	}
	if checked < len(src.Nets)/2 {
		t.Fatalf("only %d of %d nets compared", checked, len(src.Nets))
	}
}

// Clone makes the same number of allocations at any design size: the four
// arenas and the port maps, nothing per instance or per net.
func TestCloneAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{64, 4096} {
		d := chain(n)
		counts = append(counts, testing.AllocsPerRun(20, func() { d.Clone() }))
	}
	t.Logf("Clone allocations at 64 and 4096 instances: %v", counts)
	if counts[0] != counts[1] {
		t.Errorf("Clone allocates %v times at 64 instances but %v at 4096", counts[0], counts[1])
	}
	if counts[1] > 10 {
		t.Errorf("Clone allocates %v times, want at most 10", counts[1])
	}
}
