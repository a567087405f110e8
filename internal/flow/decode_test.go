package flow

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"tmi3d/internal/binwire"
	"tmi3d/internal/tech"
)

// artifact is one cached node's canonical stored bytes.
type artifact struct {
	node *Node
	data []byte
}

// corpus holds the artifacts of a tiny FPU T-MI run, every cached node's.
var corpus = sync.OnceValues(func() ([]artifact, error) {
	var out []artifact
	var encErr error
	hook := func(n *Node, exec func() (any, error)) (any, error) {
		v, err := exec()
		if err == nil && n.Cached {
			data, err := n.Encode(v)
			if err != nil {
				encErr = err
			}
			out = append(out, artifact{n, data})
		}
		return v, err
	}
	cfg := Config{Circuit: "FPU", Scale: 0.05, Node: tech.N45, Mode: tech.ModeTMI}
	if _, err := NewExecution(cfg, hook).Result(false); err != nil {
		return nil, err
	}
	return out, encErr
})

func artifacts(t testing.TB) []artifact {
	t.Helper()
	arts, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

// artifactOf returns the named node's artifact.
func artifactOf(t testing.TB, name string) artifact {
	t.Helper()
	for _, a := range artifacts(t) {
		if a.node.Name == name {
			return a
		}
	}
	t.Fatalf("no %s artifact", name)
	return artifact{}
}

// Every cached node's stored artifact decodes to a value that re-encodes to
// the same bytes.
func TestArtifactsDecodeOnFastPath(t *testing.T) {
	arts := artifacts(t)
	for i := range Nodes {
		if Nodes[i].Cached && !slicesHasNode(arts, &Nodes[i]) {
			t.Errorf("the run cached no %s artifact", Nodes[i].Name)
		}
	}
	for _, a := range arts {
		v, err := a.node.Decode(a.data)
		if err != nil {
			t.Errorf("%s: stored artifact (%d bytes) does not decode: %v", a.node.Name, len(a.data), err)
			continue
		}
		again, err := a.node.Encode(v)
		if err != nil || !bytes.Equal(again, a.data) {
			t.Errorf("%s: decoded value re-encodes differently (%v)", a.node.Name, err)
		}
	}
}

func slicesHasNode(arts []artifact, n *Node) bool {
	for _, a := range arts {
		if a.node == n {
			return true
		}
	}
	return false
}

// FuzzArtifactDecode feeds arbitrary bytes to a cached node's decoder,
// seeded with the stored artifact of every cached node of a tiny run and
// with damaged copies of the wlm artifact. The decoder must neither panic
// nor allocate more than the input describes, and whatever it accepts must
// re-encode to exactly the bytes it read.
func FuzzArtifactDecode(f *testing.F) {
	arts := artifacts(f)
	for i, a := range arts {
		f.Add(uint8(i), a.data)
	}
	wlm := artifactOf(f, "wlm").data
	f.Add(uint8(0), wlm[:len(wlm)-1])
	f.Add(uint8(0), append(bytes.Clone(wlm), 0))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		n := arts[int(which)%len(arts)].node
		v, err := n.Decode(data)
		if err != nil {
			return
		}
		again, err := n.Encode(v)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: %d bytes decode, and re-encode as %d bytes (%v)", n.Name, len(data), len(again), err)
		}
	})
}

// FuzzSamplesDecode feeds arbitrary bytes to FanoutSamples.ReadBinary,
// seeded with the binary form of samples and with damaged copies: it must
// neither panic nor allocate more than the input describes, and whatever it
// accepts must re-encode to exactly the bytes it read.
func FuzzSamplesDecode(f *testing.F) {
	full := samplesBinary(FanoutSamples{1: {1.5, 2.5}, 2: {}, 10: {4.5}, -3: nil})
	f.Add(full)
	f.Add(samplesBinary(nil))
	f.Add(samplesBinary(FanoutSamples{}))
	f.Add(samplesBinary(FanoutSamples{0: {math.NaN(), math.Inf(-1), math.Copysign(0, -1)}}))
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(append(bytes.Clone(full), 0))
	f.Add([]byte{})
	raw := func(build func(w *binwire.Writer)) []byte {
		w := binwire.NewWriter(nil)
		build(w)
		return w.Bytes()
	}
	f.Add(raw(func(w *binwire.Writer) { w.Len(2, false); w.Int(2); w.Floats(nil); w.Int(1); w.Floats(nil) })) // fanouts out of order
	f.Add(raw(func(w *binwire.Writer) { w.Len(2, false); w.Int(1); w.Floats(nil); w.Int(1); w.Floats(nil) })) // a fanout repeated
	f.Add(raw(func(w *binwire.Writer) { w.Uvarint(1000) }))                                                   // more fanouts than bytes
	f.Add(raw(func(w *binwire.Writer) { w.Len(1, false); w.Int(1); w.Uvarint(1000) }))                        // more lengths than bytes
	f.Add(raw(func(w *binwire.Writer) { w.Raw("\x82\x00") }))                                                 // a count spelled long
	f.Fuzz(func(t *testing.T, b []byte) {
		r := binwire.NewReader(b)
		var s FanoutSamples
		s.ReadBinary(r)
		if !r.Done() {
			return
		}
		if again := samplesBinary(s); !bytes.Equal(again, b) {
			t.Fatalf("%q decodes to %v, which re-encodes as %q", b, s, again)
		}
	})
}

// samplesBinary returns the binary form of s.
func samplesBinary(s FanoutSamples) []byte {
	w := binwire.NewWriter(nil)
	s.WriteBinary(w)
	return w.Bytes()
}
