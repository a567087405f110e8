package jsonwire

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// Float accepts exactly the JSON numbers and converts them as encoding/json
// converts a number into a float64; anything else fails the reader.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "1", "-1", "12", "0.5", "-0.25", "1.5599999999999998", "45.410000000000004",
		"1e21", "1E21", "1e-7", "5e-324", "1.7976931348623157e308", "1e400", "-1e400",
		"123456789012345", "1234567890123456", "9007199254740993", "99999999999999999999",
		"01", "1.", ".5", "-", "+1", "1e", "1e+", "0x10", "NaN", "Inf", "", "1.5.5", "00", "-01",
	} {
		r := NewReader([]byte(s))
		got := r.Float()
		var want float64
		err := json.Unmarshal([]byte(s), &want)
		if r.Done() != (err == nil) {
			t.Errorf("%q: reader ok %v, encoding/json error %v", s, r.Done(), err)
			continue
		}
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: reads %v (%#x), encoding/json %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzFloat holds Float to strconv.ParseFloat bit for bit on every number
// it accepts.
func FuzzFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "1.25", "1e400", "123456789012345", "-7", "2.5E+1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r := NewReader([]byte(s))
		got := r.Float()
		if !r.Done() {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: reads %v, ParseFloat %v (%v)", s, got, want, err)
		}
		var viaJSON float64
		if err := json.Unmarshal([]byte(s), &viaJSON); err != nil {
			t.Fatalf("%q: read, but encoding/json rejects it: %v", s, err)
		}
	})
}

// Int reads the shortest form only, within range.
func TestInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true}, {"7", 7, true}, {"-7", -7, true}, {"1234567890", 1234567890, true},
		{"999999999999999999", 999999999999999999, true}, {"-999999999999999999", -999999999999999999, true},
		{"1000000000000000000", 0, false}, {"-0", 0, false}, {"01", 0, false}, {"+1", 0, false},
		{"1.0", 0, false}, {"1e2", 0, false}, {"1E2", 0, false}, {"-", 0, false}, {"", 0, false}, {"x", 0, false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Int()
		if r.Done() != c.ok || (c.ok && got != c.want) {
			t.Errorf("Int(%q) = %d, ok %v; want %d, ok %v", c.in, got, r.Done(), c.want, c.ok)
		}
	}
}

// Skip returns the extent of exactly one value, stepping over strings and
// their escapes.
func TestSkip(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"a":[1,{"b":"}"}],"c":"\"]"},rest`, `{"a":[1,{"b":"}"}],"c":"\"]"}`},
		{`[1,[2,[3]]]]`, `[1,[2,[3]]]`},
		{`"a\\"x`, `"a\\"`},
		{`"a\"b",`, `"a\"b"`},
		{`-12.5e3,`, `-12.5e3`},
		{`true}`, `true`},
		{`null`, `null`},
		{`{"a":1`, ``},
		{`"open`, ``},
		{`,`, ``},
		{``, ``},
	} {
		r := NewReader([]byte(c.in))
		got := r.Skip()
		if string(got) != c.want || r.OK() != (c.want != "") {
			t.Errorf("Skip(%q) = %q, ok %v; want %q", c.in, got, r.OK(), c.want)
		}
	}
}

// Str reads the strings encoding/json writes unescaped, and nothing else.
func TestStr(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`"u12_NAND2[3]:x"`, true}, {`""`, true}, {`"a b"`, true},
		{`"a\"b"`, false}, {`"\u0041"`, false}, {`"a<b"`, false}, {`"a&b"`, false}, {`"é"`, false},
		{"\"a\tb\"", false}, {`"open`, false}, {`x`, false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Str()
		if r.Done() != c.ok {
			t.Errorf("Str(%q) ok %v, want %v", c.in, r.Done(), c.ok)
			continue
		}
		if c.ok {
			var want string
			if err := json.Unmarshal([]byte(c.in), &want); err != nil || string(got) != want {
				t.Errorf("Str(%q) = %q, encoding/json %q (%v)", c.in, got, want, err)
			}
		}
	}
}

// A failure sticks: later reads are no-ops, and Field does not clear it.
func TestFailureSticks(t *testing.T) {
	r := NewReader([]byte(`{"a":1,"b":2}`))
	r.Delim('[')
	if r.Field("a", 0) || r.OK() || r.More('}', 0) || r.Int() != 0 || r.Peek() != 0 {
		t.Fatal("reads went on after a failure")
	}
	r = NewReader([]byte(`{"a":1,"b":2}`))
	r.Delim('{')
	if r.Field("b", 0) || !r.OK() {
		t.Fatal("Field matched a key that is not next, or failed the reader")
	}
	if !r.Field("a", 0) || r.Int() != 1 || r.Field("a", 1) || !r.Field("b", 1) || r.Int() != 2 {
		t.Fatal("Field did not walk the keys in order")
	}
	r.Delim('}')
	if !r.Done() {
		t.Fatal("not done at the end")
	}
}
