package route

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tmi3d/internal/tech"
)

// FuzzResultDecode holds the one-pass decoder to the encoding/json path: on
// any bytes the one-pass decoder accepts, decoding into the method-free
// resultJSON succeeds with a deeply equal result. The canonical seeds must
// take the one-pass path.
func FuzzResultDecode(f *testing.F) {
	r := &Result{
		Routes: []NetRoute{
			{Len: 12.5, LenByClass: [NumClasses]float64{0.5, 12}, Vias: 5, Class: tech.ClassLocal},
			{Len: 1.5599999999999998, LenByClass: [NumClasses]float64{1.5599999999999998}, Vias: 2},
		},
		TotalLen: 14.06, LenByClass: [NumClasses]float64{2.06, 12}, Overflow: 3, MaxCongestion: 1.25,
		GX: 40, GY: 31, Pitch: 5.6,
	}
	var seeds [][]byte
	for _, r := range []*Result{r, {Routes: []NetRoute{}}, {}} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := decodeResult(b); !ok {
			f.Fatalf("canonical result %s left the one-pass path", b)
		}
		seeds = append(seeds, b)
	}
	s := string(seeds[0])
	for _, edit := range [][2]string{
		{`"Routes":[`, `"Routes": [`},
		{`"LenByClass":[0.5,12,0,0]`, `"LenByClass":[0.5,12,0]`},
		{`"LenByClass":[0.5,12,0,0]`, `"LenByClass":[0.5,12,0,0,9]`},
		{`"LenByClass":[0.5,12,0,0]`, `"LenByClass":null`},
		{`"Vias":5`, `"Vias":-0`},
		{`"Vias":5`, `"Vias":5e0`},
		{`"Vias":5`, `"vias":5`},
		{`"Len":12.5`, `"Len":-0`},
		{`"Len":12.5`, `"Len":1e400`},
		{`"GX":40`, `"GX":40,"GX":41`},
		{`"Pitch":5.6`, `"Pitch":5.6,"Extra":1`},
	} {
		seeds = append(seeds, []byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeResult(b)
		if !ok {
			return
		}
		var slow resultJSON
		if err := json.Unmarshal(b, &slow); err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		if !reflect.DeepEqual(fast, (*Result)(&slow)) {
			t.Fatalf("%q decodes to %+v one pass, and to %+v through encoding/json", b, fast, slow)
		}
	})
}
