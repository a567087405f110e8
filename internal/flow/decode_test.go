package flow

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// sameDecode requires Node.Decode to give what json.Unmarshal into the
// node's wire value gives: the same failure, or values that re-encode to the
// same bytes and, when they hold no NaN (which equals nothing), are deeply
// equal.
func sameDecode(t *testing.T, n *Node, data []byte) {
	t.Helper()
	got, err := n.Decode(data)
	want := n.wire()
	wantErr := json.Unmarshal(data, want)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Decode error %v, json.Unmarshal error %v", n.Name, err, wantErr)
	}
	if err != nil {
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != wantErr.Error() {
			t.Fatalf("%s: Decode error %q, json.Unmarshal error %q", n.Name, err, wantErr)
		}
		return
	}
	a, errA := n.Encode(got)
	b, errB := n.Encode(want)
	if (errA != nil) != (errB != nil) || !bytes.Equal(a, b) {
		t.Fatalf("%s: Decode re-encodes as %.200q (%v), json.Unmarshal as %.200q (%v)", n.Name, a, errA, b, errB)
	}
	if !bytes.Contains(a, []byte("NaN")) && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Decode and json.Unmarshal give different values with equal encodings", n.Name)
	}
}

// Every cached node's stored artifact decodes to a value that re-encodes to
// the same bytes, and the report's canonical JSON decodes on the one-pass
// path. Without the last check a one-pass decoder that always fell back
// would pass every identity test.
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
	report := artifactOf(t, "report")
	if r := new(Result); !decodeCanonical(report.data, r) {
		t.Error("DecodeResult's canonical payload left the fast path")
	}
	sameDecode(t, report.node, report.data)
}

func slicesHasNode(arts []artifact, n *Node) bool {
	for _, a := range arts {
		if a.node == n {
			return true
		}
	}
	return false
}

// Non-canonical spellings of the report's JSON artifact decode to what
// encoding/json gives them, value for value and failure for failure.
func TestArtifactDecodeMatchesJSON(t *testing.T) {
	cases := []struct {
		name, node string
		edit       func(s string) string
	}{
		{"whitespace after the envelope brace", "report", replace(`{"config":`, `{ "config":`)},
		{"indented", "report", indent},
		{"reordered keys", "report", reorder("power")},
		{"reordered envelope keys", "report", swapFields},
		{"duplicate key, the last wins", "report", replace(`{"config":`, `{"config":{"circuit":"X"},"config":`)},
		{"case-variant envelope key", "report", replace(`"power":`, `"Power":`)},
		{"unknown key", "report", replace(`"opt_stats":`, `"extra":1,"opt_stats":`)},
		{"escaped design name", "report", escapeFirst(`"design_a":"`)},
		{"escaped circuit name", "report", escapeFirst(`"circuit":"`)},
		{"escaped net name", "report", escapeFirst(`"where":"net `)},
		{"escaped instance name", "report", escapeFirst(`cannot reach any primary output: `)},
		{"negative zero int", "report", replaceInt(`"num_cells":`, "-0")},
		{"negative zero float", "report", replaceValue("footprint_um2", "-0")},
		{"float out of range", "report", replaceValue("footprint_um2", "1e400")},
		{"float out of range in timing", "report", replaceValue("wns_ps", "1e400")},
		{"float with exponent", "report", replaceValue("total_wl_um", "2.5E+1")},
		{"ten-digit int", "report", replaceInt(`"num_cells":`, "1234567890")},
		{"twenty-digit int", "report", replaceInt(`"num_cells":`, "12345678901234567890")},
		{"int with exponent", "report", replaceInt(`"num_cells":`, "1e2")},
		{"null design", "report", replaceValue("design_a", "null")},
		{"null timing", "report", replaceValue("wns_ps", "null")},
		{"string timing entry", "report", replaceValue("wns_ps", `"+Inf"`)},
		{"short LenByClass", "report", replaceValue("wl_by_class_um", "[1,2,3]")},
		{"long LenByClass", "report", replaceValue("wl_by_class_um", "[1,2,3,4,5]")},
		{"no closing newline", "report", func(s string) string { return strings.TrimSuffix(s, "\n") }},
		{"two closing newlines", "report", func(s string) string { return s + "\n" }},
		{"trailing space", "report", func(s string) string { return s + " " }},
		{"trailing bytes", "report", func(s string) string { return s + "x" }},
		{"trailing value", "report", func(s string) string { return s + "{}\n" }},
		{"truncated", "report", func(s string) string { return s[:len(s)/2] }},
		{"unbalanced", "report", replace(`"wl_by_class_um":[`, `"wl_by_class_um":[[`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := artifactOf(t, c.node)
			edited := c.edit(string(a.data))
			if edited == string(a.data) {
				t.Fatal("the edit changed nothing")
			}
			sameDecode(t, a.node, []byte(edited))
		})
	}
}

// replace edits the first occurrence of old.
func replace(old, new string) func(string) string {
	return func(s string) string { return strings.Replace(s, old, new, 1) }
}

// replaceInt replaces the integer after the first occurrence of key.
func replaceInt(key, v string) func(string) string {
	return func(s string) string {
		i := strings.Index(s, key)
		if i < 0 {
			return s
		}
		i += len(key)
		j := i
		for j < len(s) && (s[j] == '-' || (s[j] >= '0' && s[j] <= '9')) {
			j++
		}
		return s[:i] + v + s[j:]
	}
}

// replaceValue replaces the value of the first key named key.
func replaceValue(key, v string) func(string) string {
	return func(s string) string {
		i := strings.Index(s, `"`+key+`":`)
		if i < 0 {
			return s
		}
		i += len(key) + 3
		var raw json.RawMessage
		dec := json.NewDecoder(strings.NewReader(s[i:]))
		if err := dec.Decode(&raw); err != nil {
			return s
		}
		return s[:i] + v + s[i+len(raw):]
	}
}

// escapeFirst spells the first character of the first string after key as a
// \u escape.
func escapeFirst(key string) func(string) string {
	return func(s string) string {
		i := strings.Index(s, key)
		if i < 0 {
			return s
		}
		i += len(key)
		return s[:i] + `\u00` + strings.ToLower(hexByte(s[i])) + s[i+1:]
	}
}

func hexByte(c byte) string {
	const digits = "0123456789ABCDEF"
	return string([]byte{digits[c>>4], digits[c&15]})
}

// indent re-spells the artifact with json.Indent.
func indent(s string) string {
	var b bytes.Buffer
	if err := json.Indent(&b, []byte(s), "", "  "); err != nil {
		return s
	}
	return b.String()
}

// reorder swaps the first two fields of the object that is key's value.
func reorder(key string) func(string) string {
	return func(s string) string {
		i := strings.Index(s, `"`+key+`":`)
		if i < 0 {
			return s
		}
		i += len(key) + 3
		var raw json.RawMessage
		if err := json.NewDecoder(strings.NewReader(s[i:])).Decode(&raw); err != nil {
			return s
		}
		return s[:i] + strings.TrimSuffix(swapFields(string(raw)), "\n") + s[i+len(raw):]
	}
}

// swapFields swaps the first two fields of the envelope.
func swapFields(s string) string {
	var m []json.RawMessage
	dec := json.NewDecoder(strings.NewReader(s))
	tok, _ := dec.Token() // {
	if tok != json.Delim('{') {
		return s
	}
	var keys []string
	for dec.More() {
		k, _ := dec.Token()
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return s
		}
		keys = append(keys, k.(string))
		m = append(m, v)
	}
	if len(keys) < 2 {
		return s
	}
	keys[0], keys[1] = keys[1], keys[0]
	m[0], m[1] = m[1], m[0]
	var b strings.Builder
	b.WriteByte('{')
	for i := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(keys[i])
		b.Write(k)
		b.WriteByte(':')
		b.Write(m[i])
	}
	b.WriteString("}\n")
	return b.String()
}

// FuzzArtifactDecode feeds arbitrary bytes to a cached node's decoder,
// seeded with the stored artifact of every cached node of a tiny run and
// with damaged copies of the wlm artifact. A binary envelope's decoder must
// neither panic nor allocate more than the input describes, and whatever it
// accepts must re-encode to exactly the bytes it read; the report's JSON
// decoder must fail where json.Unmarshal fails and otherwise give its value.
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
		if n.Name == "report" {
			sameDecode(t, n, data)
			return
		}
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

// FuzzSamplesDecode holds the one-pass fanout-sample decoder to
// encoding/json: on any bytes it accepts, decoding into a
// map[int][]float64 succeeds with a deeply equal map.
func FuzzSamplesDecode(f *testing.F) {
	canonical, err := json.Marshal(FanoutSamples{1: {1.5, 2.5}, 2: {}, 10: {4.5}, -3: nil})
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := decodeSamples(canonical); !ok {
		f.Fatalf("canonical samples %s left the one-pass path", canonical)
	}
	f.Add(canonical)
	s := string(canonical)
	for _, edit := range [][2]string{
		{`"1":`, `"01":`}, {`"1":`, `"+1":`}, {`"1":`, `"-0":`}, {`"1":`, `"1.0":`},
		{`"1":`, `"99999999999999999999":`}, {`"1":`, `"\u0031":`}, {`"1":`, `"2":`},
		{`[1.5,`, `[null,`}, {`[1.5,`, `[1e400,`}, {`{`, `{ `}, {`{`, `null`},
	} {
		f.Add([]byte(strings.Replace(s, edit[0], edit[1], 1)))
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, ok := decodeSamples(b)
		if !ok {
			return
		}
		var slow map[int][]float64
		if err := json.Unmarshal(b, &slow); err != nil {
			t.Fatalf("one-pass decode accepted %q, encoding/json fails: %v", b, err)
		}
		if !reflect.DeepEqual(map[int][]float64(fast), slow) {
			t.Fatalf("%q decodes to %v one pass, and to %v through encoding/json", b, fast, slow)
		}
	})
}
