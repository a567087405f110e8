package circuits

import (
	"fmt"
	"testing"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

// evalCombinational evaluates a combinational netlist by fixed-point sweeps
// using the cellgen logic functions (the same functions the power engine
// uses). DFFs pass D through to Q, turning the pipeline into its unrolled
// combinational equivalent for verification.
func evalCombinational(t *testing.T, d *netlist.Design, pi map[string]bool) []bool {
	t.Helper()
	val := make([]bool, len(d.Nets))
	have := make([]bool, len(d.Nets))
	for name, ni := range d.PIs {
		if v, ok := pi[name]; ok {
			val[ni], have[ni] = v, true
		}
		if name == "tie0" {
			val[ni], have[ni] = false, true
		}
		if name == "tie1" {
			val[ni], have[ni] = true, true
		}
	}
	for pass := 0; pass < 1000; pass++ {
		changed := false
		for ii := range d.Instances {
			inst := &d.Instances[ii]
			if inst.Func == "DFF" {
				dn, _ := inst.Pins.Net("D")
				qn, _ := inst.Pins.Net("Q")
				if have[dn] && (!have[qn] || val[qn] != val[dn]) {
					val[qn], have[qn] = val[dn], true
					changed = true
				}
				continue
			}
			def, ok := cellgen.Template(inst.Func)
			if !ok {
				t.Fatalf("no template for %s", inst.Func)
			}
			in := make([]bool, len(def.Inputs))
			ready := true
			for k, pin := range def.Inputs {
				ni, _ := inst.Pins.Net(pin)
				if !have[ni] {
					ready = false
					break
				}
				in[k] = val[ni]
			}
			if !ready {
				continue
			}
			out := def.Logic(in)
			for k, pin := range def.Outputs {
				ni, _ := inst.Pins.Net(pin)
				if !have[ni] || val[ni] != out[k] {
					val[ni], have[ni] = out[k], true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	res := make([]bool, len(d.Nets))
	copy(res, val)
	for i := range d.Nets {
		if !have[i] && i != d.ClockNet {
			t.Fatalf("net %q never evaluated", d.Nets[i].Name)
		}
	}
	return res
}

// The structural AES S-box must match the reference field computation for
// every input byte.
func TestSBoxNetlistMatchesReference(t *testing.T) {
	b := newBuilder("sboxtest")
	in := b.inputBus("x", 8)
	out := b.sboxGates(in)
	b.outputBus("y", out)
	d, err := b.finish(1000)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 256; a++ {
		pi := map[string]bool{}
		for i := 0; i < 8; i++ {
			pi[in[i]] = a>>uint(i)&1 == 1
		}
		vals := evalCombinational(t, d, pi)
		var got uint8
		for i := 0; i < 8; i++ {
			if vals[d.POs[fmt.Sprintf("y%d", i)]] {
				got |= 1 << uint(i)
			}
		}
		if want := SBox(uint8(a)); got != want {
			t.Fatalf("S-box(0x%02x) = 0x%02x, want 0x%02x", a, got, want)
		}
	}
}

// The structural DES S-boxes must match the FIPS tables for all inputs.
func TestDESSBoxNetlist(t *testing.T) {
	for box := 0; box < 8; box++ {
		b := newBuilder("destest")
		in := b.inputBus("x", 6)
		out := b.desSBox(box, in)
		b.outputBus("y", out)
		d, err := b.finish(1000)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 64; v++ {
			// DES convention: in[0] is the leftmost bit of the 6-bit input.
			pi := map[string]bool{}
			for i := 0; i < 6; i++ {
				pi[in[i]] = v>>uint(5-i)&1 == 1
			}
			vals := evalCombinational(t, d, pi)
			var got uint8
			for i := 0; i < 4; i++ {
				if vals[d.POs[fmt.Sprintf("y%d", i)]] {
					got |= 1 << uint(3-i) // out[0] is the MSB
				}
			}
			row := (v>>5&1)<<1 | v&1
			col := v >> 1 & 15
			want := desSBoxes[box][row*16+col]
			if got != want {
				t.Fatalf("S%d(%06b) = %d, want %d", box+1, v, got, want)
			}
		}
	}
}

// M256 at a tiny scale must actually multiply (DFFs pass through).
func TestM256Multiplies(t *testing.T) {
	res, err := GenerateM256(0.004) // width 16
	if err != nil {
		t.Fatal(err)
	}
	res.b.sinkDangling()
	d, err := res.b.finish(2400)
	if err != nil {
		t.Fatal(err)
	}
	w := 16
	for _, tc := range []struct{ a, b uint64 }{
		{3, 5}, {255, 255}, {12345, 54321}, {65535, 65535}, {0, 77}, {1, 1},
	} {
		pi := map[string]bool{}
		for i := 0; i < w; i++ {
			pi[fmt.Sprintf("a%d", i)] = tc.a>>uint(i)&1 == 1
			pi[fmt.Sprintf("b%d", i)] = tc.b>>uint(i)&1 == 1
		}
		vals := evalCombinational(t, d, pi)
		var got uint64
		for i := 0; i < 2*w; i++ {
			if vals[d.POs[fmt.Sprintf("p%d", i)]] {
				got |= 1 << uint(i)
			}
		}
		if want := tc.a * tc.b; got != want {
			t.Fatalf("%d × %d = %d, want %d", tc.a, tc.b, got, want)
		}
	}
}

func TestGenerateAllSmall(t *testing.T) {
	for _, name := range Names {
		d, err := Generate(name, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := d.Stats()
		if st.NumCells < 100 {
			t.Errorf("%s: only %d cells at scale 0.05", name, st.NumCells)
		}
		if st.NumSeq == 0 {
			t.Errorf("%s: no flip-flops", name)
		}
		if st.AverageFanout < 1.5 || st.AverageFanout > 4.5 {
			t.Errorf("%s: average fanout %.2f outside plausible range", name, st.AverageFanout)
		}
		if d.TargetClockPs <= 0 {
			t.Errorf("%s: no target clock", name)
		}
	}
}

// Table 12 cell counts at scale 1 — generated sizes must land within 2x of
// the paper's synthesized counts (synthesis adds buffers on top of these).
func TestTable12FullSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	want := map[string]int{
		"FPU": 9694, "AES": 13891, "LDPC": 38289, "DES": 51162, "M256": 202877,
	}
	for _, name := range Names {
		d, err := Generate(name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(d.Instances)
		if n < want[name]/2 || n > want[name]*2 {
			t.Errorf("%s: %d cells at full scale, Table 12 says %d (want within 2x)", name, n, want[name])
		} else {
			t.Logf("%s: %d cells (Table 12: %d)", name, n, want[name])
		}
	}
}

func TestLDPCDegrees(t *testing.T) {
	res, err := GenerateLDPC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	res.b.sinkDangling()
	d, err := res.b.finish(2400)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered input bit must fan out to 7 sinks: 6 checks + its own
	// update XOR.
	st := d.Stats()
	if st.NumCells == 0 {
		t.Fatal("empty LDPC")
	}
	var high int
	for i := range d.Nets {
		if d.Nets[i].Fanout() >= 7 {
			high++
		}
	}
	if high < 100 {
		t.Errorf("LDPC should have many degree-7 variable nets, found %d", high)
	}
}

func TestTargetClocks(t *testing.T) {
	if v, _ := TargetClockPs("AES", tech.N45); v != 800 {
		t.Errorf("AES 45nm clock = %v", v)
	}
	if v, _ := TargetClockPs("AES", tech.N7); v != 270 {
		t.Errorf("AES 7nm clock = %v", v)
	}
	if _, err := TargetClockPs("XXX", tech.N45); err == nil {
		t.Error("unknown benchmark should error")
	}
	if u := TargetUtilization("LDPC"); u != 0.33 {
		t.Errorf("LDPC utilization = %v", u)
	}
	if u := TargetUtilization("AES"); u != 0.80 {
		t.Errorf("AES utilization = %v", u)
	}
	if _, err := Generate("XXX", 1); err == nil {
		t.Error("unknown benchmark should error")
	}
	if _, err := Generate("AES", -1); err == nil {
		t.Error("negative scale should error")
	}
}
