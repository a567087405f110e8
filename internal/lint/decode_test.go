package lint

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReportDecode holds the one-pass decoder to the encoding/json path: on
// any bytes the one-pass decoder accepts, decoding into reportJSON succeeds
// with the same subject and deeply equal diagnostics. The canonical seeds
// must take the one-pass path.
func FuzzReportDecode(f *testing.F) {
	full := &Report{Subject: "FPU/45nm/T-MI post-route", Diags: []Diagnostic{
		{Rule: "ERC-DANGLE", Severity: Warning, Where: "net n_154", Message: "driven net has no sinks", Hint: "prune it"},
		{Rule: "ERC-LOOP", Severity: Error, Where: "inst u1", Message: "combinational loop"},
		{Rule: "ERC-DANGLE", Severity: Info, Where: "net n_154", Message: "driven net has no sinks", Hint: "prune it"},
	}}
	var seeds [][]byte
	for _, r := range []*Report{full, {Subject: "empty"}} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := decodeReport(b); !ok {
			f.Fatalf("canonical report %s left the one-pass path", b)
		}
		seeds = append(seeds, b)
	}
	s := string(seeds[0])
	for _, edit := range [][2]string{
		{`"diagnostics":[`, `"diagnostics": [`},
		{`"diagnostics":[`, `"diagnostics":null,"x":[`},
		{`"severity":"warning"`, `"severity":"fatal"`},
		{`"severity":"warning"`, `"severity":"w\u0061rning"`},
		{`"severity":"warning"`, `"severity":1`},
		{`"errors":1`, `"errors":"1"`},
		{`"errors":1`, `"errors":-0`},
		{`"clean":false`, `"clean":0`},
		{`"hint":"prune it"}`, `"hint":""}`},
		{`"hint":"prune it"}`, `"hint":null}`},
		{`"where":"net n_154"`, `"Where":"net n_154"`},
		{`"message":"combinational loop"`, `"message":"combinational loop","hint":"x","hint":"y"`},
	} {
		seeds = append(seeds, []byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	for _, b := range seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeReport(b)
		if !ok {
			return
		}
		var slow reportJSON
		if err := json.Unmarshal(b, &slow); err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		if fast.Subject != slow.Subject || !reflect.DeepEqual(fast.Diags, slow.Diagnostics) {
			t.Fatalf("%q decodes to %+v one pass, and to %+v through encoding/json", b, fast, slow)
		}
	})
}
