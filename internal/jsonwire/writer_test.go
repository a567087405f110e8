package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// stringSeeds cover every escape: HTML characters, quotes and backslashes,
// the named and unnamed control bytes, DEL, U+2028 and U+2029, and invalid
// UTF-8 (a stray continuation byte, a truncated sequence, a surrogate, an
// overlong form, a code point past U+10FFFF). The second half puts most
// escapes after a run of safe bytes, so the copy of that run is checked too.
var stringSeeds = []string{
	"", "u1/n_2", `<a&"b\`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "B > ",
	"\xff", "ok\x80", "\xe2\x80", "\xed\xa0\x80", "é中🙂", "plain name[3]",
	"a b", " ", "net<3>&vdd", `path\to"x"`, "x\x1fy\x7fz", "name\xff",
	"\xc3", "a\xf0\x9f\x99", "\xef\xbf\xbd", "\xc0\xaf", "\xf4\x90\x80\x80",
	"cell_the_quick_brown_fox_jumps_over_the_lazy_dog\n",
}

// String writes what json.Marshal writes for a string, HTML escaping
// included.
func FuzzWriterString(f *testing.F) {
	for _, s := range stringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w := NewWriter([]byte("x"))
		w.String(s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Bytes()[1:]; !w.OK() || !bytes.Equal(got, want) {
			t.Fatalf("%q: writes %q, encoding/json %q", s, got, want)
		}
	})
}

// floatSeeds cover both formats and their edges, the integer shortcut's
// edges, -0, and the values encoding/json refuses.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1.5599999999999998, 45.410000000000004, 1e-6, 9.99e-7,
	1e-7, 1e20, 1e21, 123456789012345, 1e15, -1e15, 999999999999999, 9007199254740993, 1e300,
	5e-324, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	34.01, -0.001, 0.999, 1.005, 0.0015, 12.5, 999999999999.999, 1e12 + 0.25, 45.410000000000004,
}

// Float writes what encoding/json writes for a float64, and fails exactly
// where encoding/json refuses the value.
func FuzzWriterFloat(f *testing.F) {
	for _, x := range floatSeeds {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		w := NewWriter(nil)
		w.Float(x)
		want, err := json.Marshal(x)
		if w.OK() != (err == nil) {
			t.Fatalf("%v: writer ok %v, encoding/json error %v", x, w.OK(), err)
		}
		if err == nil && !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%v: writes %s, encoding/json %s", x, w.Bytes(), want)
		}
		// In a list, and again after it, it writes the same.
		w = NewWriter(nil)
		w.Floats([]float64{x, 1, x})
		w.Float(x)
		if w.OK() != (err == nil) {
			t.Fatalf("[%v,1,%v]: writer ok %v, encoding/json error %v", x, x, w.OK(), err)
		}
		if one := string(want); err == nil && string(w.Bytes()) != "["+one+",1,"+one+"]"+one {
			t.Fatalf("[%v,1,%v] then %v: writes %s", x, x, x, w.Bytes())
		}
	})
}

// The writer's other primitives, and null for a nil float slice against []
// for an empty one.
func TestWriterPrimitives(t *testing.T) {
	w := NewWriter(nil)
	w.Raw(`{"a":`)
	w.Int(-12)
	w.Byte(',')
	w.Bool(true)
	w.Byte(',')
	w.Bool(false)
	w.Byte(',')
	w.Null()
	w.Byte(',')
	w.Floats(nil)
	w.Byte(',')
	w.Floats([]float64{})
	w.Byte(',')
	w.RawBytes([]byte(`"z"`))
	w.Byte('}')
	if got, want := string(w.Bytes()), `{"a":-12,true,false,null,null,[],"z"}`; !w.OK() || got != want {
		t.Fatalf("writes %s (ok %v), want %s", got, w.OK(), want)
	}
	w.Fail()
	if w.OK() {
		t.Fatal("Fail left the writer OK")
	}
}
