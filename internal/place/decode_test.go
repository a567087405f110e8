package place

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tmi3d/internal/geom"
	"tmi3d/internal/netlist"
)

// FuzzSnapshotDecode holds the one-pass decoder to the encoding/json path:
// on any bytes the one-pass decoder accepts, decoding into the method-free
// snapshotJSON succeeds with a deeply equal snapshot. The canonical seeds
// must take the one-pass path.
func FuzzSnapshotDecode(f *testing.F) {
	var seeds [][]byte
	for _, s := range []Snapshot{testPlacement(netlist.New("d")).Snapshot(), {X: []float64{}, Ports: map[string]geom.Point{}}, {}} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := decodeSnapshot(b); !ok {
			f.Fatalf("canonical snapshot %s left the one-pass path", b)
		}
		seeds = append(seeds, b)
	}
	s := string(seeds[0])
	for _, edit := range [][2]string{
		{`"x":[`, `"x": [`},
		{`"x":[`, `"x":[null,`},
		{`"ports":{"a"`, `"ports":{"\u0061"`},
		{`"ports":{"a":`, `"ports":{"out":{"X":1,"Y":2},"a":`},
		{`"row_h":1.4`, `"row_h":-0`},
		{`"row_h":1.4`, `"row_h":1e400`},
		{`"row_h":1.4`, `"Row_h":1.4`},
		{`"util":0.8125`, `"util":0.8125,"util":1`},
		{`{"X":0,"Y":3.5}`, `{"Y":3.5,"X":0}`},
		{`"y":[`, `"y":null,"z":[`},
	} {
		seeds = append(seeds, []byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeSnapshot(b)
		if !ok {
			return
		}
		var slow snapshotJSON
		if err := json.Unmarshal(b, &slow); err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		if !reflect.DeepEqual(fast, Snapshot(slow)) {
			t.Fatalf("%q decodes to %+v one pass, and to %+v through encoding/json", b, fast, slow)
		}
	})
}
