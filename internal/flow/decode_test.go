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

// Every cached node's canonical artifact decodes on the fast path, to a
// value that re-encodes to the same bytes. Without this a fast path that
// always fell back would pass every identity test.
func TestArtifactsDecodeOnFastPath(t *testing.T) {
	arts := artifacts(t)
	for i := range Nodes {
		if Nodes[i].Cached && !slicesHasNode(arts, &Nodes[i]) {
			t.Errorf("the run cached no %s artifact", Nodes[i].Name)
		}
	}
	for _, a := range arts {
		v, ok := a.node.decodeFast(a.data)
		if !ok {
			t.Errorf("%s: canonical artifact (%d bytes) left the fast path", a.node.Name, len(a.data))
			continue
		}
		again, err := a.node.Encode(v)
		if err != nil || !bytes.Equal(again, a.data) {
			t.Errorf("%s: fast-path value re-encodes differently (%v)", a.node.Name, err)
		}
		sameDecode(t, a.node, a.data)
	}
	report := artifactOf(t, "report")
	if r := new(Result); !decodeCanonical(report.data, r) {
		t.Error("DecodeResult's canonical payload left the fast path")
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

// Non-canonical spellings of real artifacts decode to what encoding/json
// gives them, value for value and failure for failure.
func TestArtifactDecodeMatchesJSON(t *testing.T) {
	cases := []struct {
		name, node string
		edit       func(s string) string
	}{
		{"whitespace after the envelope brace", "signoff", replace(`{"design":`, `{ "design":`)},
		{"whitespace inside the design", "signoff", replace(`"instances":[`, `"instances": [`)},
		{"indented", "power", indent},
		{"reordered keys", "wlm", swapFields},
		{"reordered envelope keys", "signoff", swapFields},
		{"duplicate key, the last wins", "place", func(s string) string {
			return strings.Replace(s, `{"snapshot":`, `{"snapshot":{"die":{"Lo":{"X":1,"Y":2},"Hi":{"X":3,"Y":4}}},"snapshot":`, 1)
		}},
		{"case-variant envelope key", "signoff", replace(`"timing":`, `"Timing":`)},
		{"case-variant route key", "route", replace(`"TotalLen":`, `"totallen":`)},
		{"unknown key", "signoff", replace(`"stats":`, `"extra":1,"stats":`)},
		{"escaped instance name", "synth", escapeFirst(`"Name":"`)},
		{"escaped design name", "opt", escapeFirst(`"name":"`)},
		{"escaped net name", "opt", escapeFirst(`"nets":[{"name":"`)},
		{"escaped pin name", "signoff", replace(`"Pin":"D"`, `"Pin":"\u0044"`)},
		{"escaped circuit name", "report", escapeFirst(`"circuit":"`)},
		{"negative zero int", "signoff", replaceInt(`"clock_net":`, "-0")},
		{"negative zero float", "route", replaceValue("TotalLen", "-0")},
		{"negative zero coordinate", "place", replaceValue("row_h", "-0.0")},
		{"negative zero vias", "route", replaceInt(`"Vias":`, "-0")},
		{"float out of range", "route", replaceInt(`"Vias":`, "1e400")},
		{"float out of range in timing", "signoff", replaceValue("clock_ps", "1e400")},
		{"float with exponent", "route", replaceValue("Pitch", "2.5E+1")},
		{"ten-digit int", "signoff", replaceInt(`"Inst":`, "1234567890")},
		{"twenty-digit int", "signoff", replaceInt(`"Inst":`, "12345678901234567890")},
		{"int with exponent", "signoff", replaceInt(`"Inst":`, "1e2")},
		{"null design", "signoff", replaceValue("design", "null")},
		{"null route", "route", replaceValue("route", "null")},
		{"null timing", "signoff", replaceValue("timing", "null")},
		{"null snapshot", "opt", replaceValue("snapshot", "null")},
		{"null pins", "synth", replaceValue("Pins", "null")},
		{"null sinks", "synth", replaceValue("sinks", "null")},
		{"null timing entry", "signoff", replace(`"arrival_ps":[`, `"arrival_ps":[null,`)},
		{"string timing entry", "signoff", replace(`"arrival_ps":[`, `"arrival_ps":["+Inf","Inf",`)},
		{"short LenByClass", "route", replaceValue("LenByClass", "[1,2,3]")},
		{"long LenByClass", "route", replaceValue("LenByClass", "[1,2,3,4,5]")},
		{"unsorted pins", "synth", replaceValue("Pins", `{"Z":1,"A":2}`)},
		{"no closing newline", "signoff", func(s string) string { return strings.TrimSuffix(s, "\n") }},
		{"two closing newlines", "signoff", func(s string) string { return s + "\n" }},
		{"trailing space", "report", func(s string) string { return s + " " }},
		{"trailing bytes", "signoff", func(s string) string { return s + "x" }},
		{"trailing value", "report", func(s string) string { return s + "{}\n" }},
		{"truncated", "signoff", func(s string) string { return s[:len(s)/2] }},
		{"unbalanced", "place", replace(`"x":[`, `"x":[[`)},
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

// FuzzArtifactDecode checks the one-pass decoder against encoding/json on
// arbitrary bytes, seeded with the canonical artifact of every cached node of
// a tiny run: Node.Decode and json.Unmarshal into the node's wire value both
// fail, or both succeed with the same value.
func FuzzArtifactDecode(f *testing.F) {
	arts := artifacts(f)
	for i, a := range arts {
		f.Add(uint8(i), a.data)
	}
	f.Add(uint8(0), []byte(`{"model":null,"util":0.5}`+"\n"))
	f.Add(uint8(0), []byte(`{"util":0.5,"model":null}`+"\n"))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sameDecode(t, arts[int(which)%len(arts)].node, data)
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
