package circuits

import (
	"fmt"
	"testing"
)

// evalBus drives a builder-built combinational block and reads a result bus.
func evalBus(t *testing.T, b *builder, in map[string]uint64, inW map[string]int, out []string) uint64 {
	t.Helper()
	d, err := b.finish(1000)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]bool{}
	for name, v := range in {
		for i := 0; i < inW[name]; i++ {
			pi[fmt.Sprintf("%s%d", name, i)] = v>>uint(i)&1 == 1
		}
	}
	vals := evalCombinational(t, d, pi)
	var r uint64
	for i, net := range out {
		ni := d.NetByName(net)
		if ni < 0 {
			t.Fatalf("missing net %s", net)
		}
		if vals[ni] {
			r |= 1 << uint(i)
		}
	}
	return r
}

func TestPrefixAdd(t *testing.T) {
	const w = 12
	for _, tc := range []struct {
		a, b uint64
		cin  bool
	}{
		{0, 0, false}, {1, 1, false}, {4095, 1, false}, {2048, 2048, false},
		{1234, 987, true}, {4095, 4095, true}, {0, 0, true},
	} {
		b := newBuilder("padd")
		xa := b.inputBus("a", w)
		xb := b.inputBus("b", w)
		cin := ""
		if tc.cin {
			cin = b.constNet(true)
		}
		sum, cout := b.prefixAdd(xa, xb, cin)
		got := evalBus(t, b, map[string]uint64{"a": tc.a, "b": tc.b},
			map[string]int{"a": w, "b": w}, append(sum, cout))
		want := tc.a + tc.b
		if tc.cin {
			want++
		}
		if got != want&(1<<(w+1)-1) {
			t.Errorf("%d+%d(+%v) = %d, want %d", tc.a, tc.b, tc.cin, got, want)
		}
	}
}

func TestPrefixAddMatchesRipple(t *testing.T) {
	const w = 9
	seed := uint64(12345)
	for k := 0; k < 30; k++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		a := seed >> 20 & (1<<w - 1)
		bb := seed >> 40 & (1<<w - 1)

		b1 := newBuilder("r")
		s1, c1 := b1.rippleAdd(b1.inputBus("a", w), b1.inputBus("b", w), "")
		ref := evalBus(t, b1, map[string]uint64{"a": a, "b": bb},
			map[string]int{"a": w, "b": w}, append(s1, c1))

		b2 := newBuilder("p")
		s2, c2 := b2.prefixAdd(b2.inputBus("a", w), b2.inputBus("b", w), "")
		got := evalBus(t, b2, map[string]uint64{"a": a, "b": bb},
			map[string]int{"a": w, "b": w}, append(s2, c2))
		if got != ref {
			t.Fatalf("%d+%d: prefix %d != ripple %d", a, bb, got, ref)
		}
	}
}

func TestPrefixIncrement(t *testing.T) {
	const w = 8
	for _, v := range []uint64{0, 1, 7, 127, 254, 255} {
		b := newBuilder("inc")
		out := b.prefixIncrement(b.inputBus("a", w))
		got := evalBus(t, b, map[string]uint64{"a": v}, map[string]int{"a": w}, out)
		if got != (v+1)&0xFF {
			t.Errorf("inc(%d) = %d, want %d", v, got, (v+1)&0xFF)
		}
	}
}

func TestLZCTree(t *testing.T) {
	const w = 13
	lzcRef := func(v uint64) uint64 {
		n := uint64(0)
		for i := w - 1; i >= 0; i-- {
			if v>>uint(i)&1 == 1 {
				break
			}
			n++
		}
		return n
	}
	for _, v := range []uint64{1, 2, 4096, 4095, 0x1555, 3, 0x1000, 7} {
		b := newBuilder("lzc")
		count := b.lzcTree(b.inputBus("a", w))
		got := evalBus(t, b, map[string]uint64{"a": v}, map[string]int{"a": w}, count)
		want := lzcRef(v)
		if got != want {
			t.Errorf("lzc(%#x) = %d, want %d", v, got, want)
		}
	}
}

// The generated prefix adder must have logarithmic depth: count XOR/AND/OR
// levels on the critical path via a longest-path traversal.
func TestPrefixAddDepth(t *testing.T) {
	const w = 64
	b := newBuilder("depth")
	sum, _ := b.prefixAdd(b.inputBus("a", w), b.inputBus("b", w), "")
	_ = sum
	d, err := b.finish(1000)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, len(d.Nets))
	maxDepth := 0
	for pass := 0; pass < 50; pass++ {
		changed := false
		for ii := range d.Instances {
			inst := &d.Instances[ii]
			din := 0
			for _, p := range inst.Pins {
				if p.Name == "Z" {
					continue
				}
				if depth[p.Net] > din {
					din = depth[p.Net]
				}
			}
			z, _ := inst.Pins.Net("Z")
			if depth[z] < din+1 {
				depth[z] = din + 1
				changed = true
				if depth[z] > maxDepth {
					maxDepth = depth[z]
				}
			}
		}
		if !changed {
			break
		}
	}
	// Kogge–Stone on 64 bits: ~log2(64)·2 + a few levels; a ripple would be
	// ≥ 64. Anything under 20 proves logarithmic structure.
	if maxDepth >= 25 {
		t.Errorf("prefix adder depth %d, want logarithmic (<25)", maxDepth)
	}
}
