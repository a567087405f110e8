package netlist

import (
	"strings"
	"testing"
)

func sample() *Design {
	d := New("t")
	d.AddPI("a", "a")
	d.AddPI("b", "b")
	d.AddInstance("g1", "NAND2", map[string]string{"A": "a", "B": "b", "Z": "n1"}, "Z")
	d.AddInstance("g2", "INV", map[string]string{"A": "n1", "Z": "n2"}, "Z")
	d.AddInstance("ff", "DFF", map[string]string{"D": "n2", "CK": "clk", "Q": "q"}, "Q")
	d.AddPO("out", "q")
	d.SetClock("clk")
	return d
}

func TestBuildAndValidate(t *testing.T) {
	d := sample()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.NetByName("n1"); got < 0 {
		t.Error("n1 missing")
	}
	if d.NetByName("nope") != -1 {
		t.Error("missing net should be -1")
	}
	n1 := d.NetByName("n1")
	if d.Nets[n1].Driver.Inst != 0 || d.Nets[n1].Driver.Pin != "Z" {
		t.Errorf("n1 driver = %+v", d.Nets[n1].Driver)
	}
	if d.Nets[n1].Fanout() != 1 {
		t.Errorf("n1 fanout = %d", d.Nets[n1].Fanout())
	}
}

func TestStats(t *testing.T) {
	d := sample()
	st := d.Stats()
	if st.NumCells != 3 || st.NumSeq != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.NumBuffers != 0 {
		t.Error("no buffers yet")
	}
	// Nets excluding clock: a, b, n1, n2, q = 5.
	if st.NumNets != 5 {
		t.Errorf("NumNets = %d, want 5", st.NumNets)
	}
}

func TestValidateCatchesNoDriver(t *testing.T) {
	d := New("bad")
	d.AddInstance("g", "INV", map[string]string{"A": "floating", "Z": "z"}, "Z")
	if err := d.Validate(); err == nil {
		t.Error("undriven input net should fail validation")
	}
}

func TestInsertBuffer(t *testing.T) {
	d := New("buf")
	d.AddPI("a", "a")
	d.AddInstance("g1", "INV", map[string]string{"A": "a", "Z": "n"}, "Z")
	for i := 0; i < 4; i++ {
		d.AddInstance("s"+string(rune('0'+i)), "INV",
			map[string]string{"A": "n", "Z": "z" + string(rune('0'+i))}, "Z")
		d.AddPO("o"+string(rune('0'+i)), "z"+string(rune('0'+i)))
	}
	n := d.NetByName("n")
	moved := d.Nets[n].Sinks[2:4:4]
	movedCopy := append([]PinRef{}, moved...)
	newNet, inst := d.InsertBuffer(n, movedCopy, "BUF", "BUF_X4")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.Instances[inst].IsBuffer {
		t.Error("buffer flag missing")
	}
	if d.Nets[n].Fanout() != 3 { // 2 kept + buffer input
		t.Errorf("root fanout = %d, want 3", d.Nets[n].Fanout())
	}
	if d.Nets[newNet].Fanout() != 2 {
		t.Errorf("buffered fanout = %d, want 2", d.Nets[newNet].Fanout())
	}
	// Moved instances now reference the new net.
	for _, s := range d.Nets[newNet].Sinks {
		if ni, ok := d.Instances[s.Inst].Pins.Net(s.Pin); !ok || ni != newNet {
			t.Error("moved sink pin not rebound")
		}
	}
	if st := d.Stats(); st.NumBuffers != 1 {
		t.Errorf("buffer count = %d", st.NumBuffers)
	}
}

func TestInsertBufferMovesPO(t *testing.T) {
	d := New("po")
	d.AddPI("a", "a")
	d.AddInstance("g", "INV", map[string]string{"A": "a", "Z": "z"}, "Z")
	d.AddPO("out", "z")
	z := d.NetByName("z")
	newNet, _ := d.InsertBuffer(z, []PinRef{{Inst: -1, Pin: "out"}}, "BUF", "BUF_X1")
	if d.POs["out"] != newNet {
		t.Error("PO should move to the buffered net")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := sample()
	c := d.Clone()
	if c.Stats() != d.Stats() {
		t.Fatal("clone stats differ")
	}
	// Mutating the clone must not affect the original.
	c.Instances[0].CellName = "NAND2_X4"
	c.Nets[0].Sinks = append(c.Nets[0].Sinks, PinRef{Inst: 1, Pin: "A"})
	if d.Instances[0].CellName == "NAND2_X4" {
		t.Error("instance mutation leaked to original")
	}
	origSinks := len(d.Nets[0].Sinks)
	if len(c.Nets[0].Sinks) == origSinks {
		t.Error("clone sink append did not apply")
	}
	// netIndex also cloned.
	c.AddNet("extra")
	if d.NetByName("extra") != -1 {
		t.Error("net index leaked to original")
	}
}

func TestSortedPIsDeterministic(t *testing.T) {
	d := sample()
	a := d.SortedPIs()
	b := d.SortedPIs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SortedPIs not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatal("SortedPIs not sorted")
		}
	}
}

func TestViolationsReportsAll(t *testing.T) {
	d := New("bad")
	d.AddInstance("g1", "INV", map[string]string{"A": "floating", "Z": "z"}, "Z")
	d.AddInstance("g2", "INV", map[string]string{"A": "floating2", "Z": "z2"}, "Z")
	vs := d.Violations()
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Kind != KindNoDriver {
			t.Errorf("kind = %q, want %q", v.Kind, KindNoDriver)
		}
	}
	// Validate aggregates every violation into one error.
	err := d.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"floating", "floating2", "2 structural violations"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestViolationsUnlistedPin(t *testing.T) {
	d := New("bad")
	d.AddPI("a", "a")
	d.AddInstance("g1", "INV", map[string]string{"A": "a", "Z": "x"}, "Z")
	// Second driver overwrites the net's Driver, leaving g1.Z unlisted.
	d.AddInstance("g2", "INV", map[string]string{"A": "a", "Z": "x"}, "Z")
	d.AddPO("out", "x")
	found := false
	for _, v := range d.Violations() {
		if v.Kind == KindUnlistedPin {
			found = true
		}
	}
	if !found {
		t.Errorf("driver overwrite should leave an unlisted pin: %v", d.Violations())
	}
}

func TestViolationsBadSink(t *testing.T) {
	d := New("bad")
	d.AddPI("a", "a")
	d.AddInstance("g1", "INV", map[string]string{"A": "a", "Z": "x"}, "Z")
	d.AddPO("out", "x")
	d.Nets[d.NetByName("x")].Sinks = append(d.Nets[d.NetByName("x")].Sinks, PinRef{Inst: 42, Pin: "A"})
	found := false
	for _, v := range d.Violations() {
		if v.Kind == KindBadSink {
			found = true
		}
	}
	if !found {
		t.Errorf("out-of-range sink should be flagged: %v", d.Violations())
	}
}

func TestRemoveInstance(t *testing.T) {
	d := sample()
	// Drop the inverter g2 (index 1); the DFF (last) swap-fills its slot.
	inv := 1
	n1, n2 := d.NetByName("n1"), d.NetByName("n2")
	if err := d.RemoveInstance(inv); err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(d.Instances))
	}
	if d.Instances[inv].Name != "ff" {
		t.Fatalf("swap-fill put %q at index %d", d.Instances[inv].Name, inv)
	}
	// n1 lost its sink, n2 lost its driver; the renumbered DFF pins must be
	// consistent with the nets.
	if d.Nets[n1].Fanout() != 0 {
		t.Errorf("n1 fanout = %d after removing its sink", d.Nets[n1].Fanout())
	}
	if d.Nets[n2].Driver.Inst != -2 {
		t.Errorf("n2 driver = %+v, want none", d.Nets[n2].Driver)
	}
	if q := d.NetByName("q"); d.Nets[q].Driver != (PinRef{Inst: inv, Pin: "Q"}) {
		t.Errorf("q driver not renumbered: %+v", d.Nets[q].Driver)
	}
	// Remaining violations must be exactly the expected disconnections (n2
	// now undriven), not renumbering damage.
	for _, v := range d.Violations() {
		if v.Kind != KindNoDriver {
			t.Errorf("unexpected violation after removal: %s", v.Msg)
		}
	}
}

func TestRemoveNet(t *testing.T) {
	d := sample()
	// Disconnect and remove n2 (between INV and DFF): rewire the DFF D pin
	// to n1 first, as the dropinv corruption does.
	n1, n2 := d.NetByName("n1"), d.NetByName("n2")
	ff := 2
	removeSinkRef(&d.Nets[n2], PinRef{Inst: ff, Pin: "D"})
	d.Instances[ff].Pins.Set("D", n1)
	d.Nets[n1].Sinks = append(d.Nets[n1].Sinks, PinRef{Inst: ff, Pin: "D"})

	if err := d.RemoveNet(n2); err == nil {
		t.Fatal("RemoveNet should refuse while the INV still drives n2")
	}
	if err := d.RemoveInstance(1); err != nil { // drop the INV
		t.Fatal(err)
	}
	n2 = d.NetByName("n2")
	if err := d.RemoveNet(n2); err != nil {
		t.Fatal(err)
	}
	if d.NetByName("n2") != -1 {
		t.Error("n2 still indexed after removal")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design not clean after remove: %v", err)
	}
	// The swapped-in net keeps its name index and connectivity.
	for name, ni := range map[string]int{"n1": d.NetByName("n1"), "q": d.NetByName("q"), "clk": d.NetByName("clk")} {
		if ni < 0 || d.Nets[ni].Name != name {
			t.Errorf("net %q index broken after swap-fill", name)
		}
	}
	if d.ClockNet != d.NetByName("clk") {
		t.Errorf("clock net index stale: %d vs %d", d.ClockNet, d.NetByName("clk"))
	}
}

func TestRemoveNetRefusesConnected(t *testing.T) {
	d := sample()
	if err := d.RemoveNet(d.NetByName("n1")); err == nil {
		t.Error("connected net removed")
	}
	if err := d.RemoveNet(d.NetByName("a")); err == nil {
		t.Error("PI-driven net removed")
	}
	if err := d.RemoveNet(d.ClockNet); err == nil {
		t.Error("clock net removed")
	}
}

// TestViolationsOrder pins the exact Violations sequence for one instance
// with two unlisted pins and one out-of-range pin: findings come in sorted
// pin order whatever order the pins were bound in.
func TestViolationsOrder(t *testing.T) {
	d := New("v")
	d.AddPI("a", "a")
	d.AddInstance("g", "INV", map[string]string{"A": "a", "Z": "z"}, "Z")
	d.AddPO("out", "z")
	na, nz := d.NetByName("a"), d.NetByName("z")
	d.Instances[0].Pins.Set("Y", na)
	d.Instances[0].Pins.Set("B", nz)
	d.Instances[0].Pins.Set("X", 99)
	want := []Violation{
		{KindUnlistedPin, nz, 0, `instance "g" pin B not recorded on net "z" (driver overwritten?)`},
		{KindBadPin, 99, 0, `instance "g" pin X: net 99 out of range`},
		{KindUnlistedPin, na, 0, `instance "g" pin Y not recorded on net "a" (driver overwritten?)`},
	}
	for run := 0; run < 20; run++ {
		got := d.Violations()
		if len(got) != len(want) {
			t.Fatalf("run %d: got %d violations %v, want %v", run, len(got), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("run %d violation %d: got %+v, want %+v", run, i, got[i], want[i])
			}
		}
	}
}
