package flow

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"tmi3d/internal/liberty"
	"tmi3d/internal/tech"
)

// offWire lists every field, keyed "<package>.<Type>.<Field>", that the wire
// deliberately does not carry, with the reason. TestWireFormatTotal fails on
// a field that does not round-trip and is not listed here, on an unexported
// field it reaches that is not listed here, and on a listed field that
// round-trips or is no longer reached.
var offWire = map[string]string{
	"flow.Config.Workers":     "ignored field: not a result input",
	"flow.Result.Design":      "gigabyte-class at scale 1; exported via Verilog/DEF, and Execution.Result reattaches it from the signoff artifact",
	"flow.Result.Placement":   "rides with Design: reattached from the signoff artifact, exported as DEF",
	"flow.Result.StageTimes":  "wall-clock observation: on the wire it would break byte identity between a cached response and a fresh run",
	"netlist.Design.netIndex": "derived index: decoding leaves it nil, as Clone does, and AddNet builds it from Nets on first use",
	"liberty.Library.byBase":  "derived index: DecodeJSON rebuilds it from Cells",
}

// TestWireFormatTotal proves the wire contract of every type whose bytes
// cross a process boundary (the stage store, serve's result store): a
// decoded value equals the encoded one in every exported field. The wire set
// is whatever the roots reach — Config, Result, each cached node's artifact
// envelope, and the cell library — so a new field or type is covered as soon
// as a root reaches it.
//
// Each flow root is filled by reflection with every exported field non-zero
// (ints 1, a valid value of every enum; distinct floats and strings;
// two-element slices; one-entry maps; allocated pointers; any other kind
// stops the test until the filler handles it), encoded with its
// canonical codec, decoded, and compared field by field. The libraries are
// the four real ones, through EncodeJSON/DecodeJSON.
func TestWireFormatTotal(t *testing.T) {
	type root struct {
		name   string
		v      any
		encode func(any) ([]byte, error)
		decode func([]byte) (any, error)
	}
	roots := []root{
		{"Config", new(Config),
			func(v any) ([]byte, error) { return encodeCanonical(v, "config") },
			func(b []byte) (any, error) { c := new(Config); return c, json.Unmarshal(b, c) }},
		{"Result", new(Result),
			func(v any) ([]byte, error) { return EncodeResult(v.(*Result)) },
			func(b []byte) (any, error) { return DecodeResult(b) }},
	}
	for i := range Nodes {
		if n := &Nodes[i]; n.Cached {
			roots = append(roots, root{n.Name + " artifact", n.wire(), n.Encode, n.Decode})
		}
	}
	w := &wireWalk{differs: map[string]string{}, reached: map[string]bool{}}
	for _, r := range roots {
		var f filler
		f.fill(reflect.ValueOf(r.v).Elem())
		data, err := r.encode(r.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", r.name, err)
		}
		back, err := r.decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.name, err)
		}
		t.Logf("%s: %d filled fields compared", r.name, w.compare(reflect.ValueOf(r.v), reflect.ValueOf(back), r.name, ""))
	}
	for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
		for _, node := range []tech.Node{tech.N45, tech.N7} {
			name := fmt.Sprintf("%v %v library", node, mode)
			lib, err := liberty.Default(node, mode)
			if err != nil {
				t.Fatal(err)
			}
			data, err := lib.EncodeJSON()
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			back, err := liberty.DecodeJSON(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			w.compare(reflect.ValueOf(lib), reflect.ValueOf(back), name, "")
		}
	}

	for _, k := range sortedKeys(w.differs) {
		if _, ok := offWire[k]; !ok {
			t.Errorf("%s does not round-trip (%s): its codec drops or invents it; fix the codec, or list it in offWire with a reason", k, w.differs[k])
		}
	}
	for _, k := range sortedKeys(w.reached) {
		if _, ok := offWire[k]; !ok && !w.reached[k] {
			t.Errorf("unexported field %s is reached by the wire set but not audited: list it in offWire with the reason it stays off the wire", k)
		}
	}
	for _, k := range sortedKeys(offWire) {
		exported, reached := w.reached[k]
		_, differs := w.differs[k]
		switch {
		case !reached:
			t.Errorf("stale offWire entry %s: no root reaches that field", k)
		case exported && !differs:
			t.Errorf("stale offWire entry %s: the field round-trips", k)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// filler sets every exported field of a value non-zero.
type filler struct{ n int }

func (f *filler) fill(v reflect.Value) {
	t := v.Type()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		f.n++
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.String:
		f.n++
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		f.fill(k)
		f.fill(e)
		v.Set(reflect.MakeMapWithSize(t, 1))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("wire test: cannot fill a %v; teach filler the kind", t))
	}
}

// wireWalk compares encoded values with their decoded copies. differs maps
// each struct field (by offWire key) that differs to the first path where it
// does; reached records every struct field the walk visits, true for
// exported ones.
type wireWalk struct {
	differs map[string]string
	reached map[string]bool
}

// compare walks a and b in step, charging a difference to field, the
// innermost struct field containing it, and returns the number of leaves
// compared. NaN equals NaN, a nil slice or map equals an empty one, and func
// values compare by nil-ness only.
func (w *wireWalk) compare(a, b reflect.Value, path, field string) int {
	differ := func(at string) int {
		if _, seen := w.differs[field]; !seen {
			w.differs[field] = at
		}
		return 1
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			return differ(path)
		}
		return 1
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			return differ(path)
		}
		return 1
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ(path)
			}
			return 1
		}
		return w.compare(a.Elem(), b.Elem(), path, field)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return differ(path)
		}
		n := 0
		for i := 0; i < a.Len(); i++ {
			n += w.compare(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), field)
		}
		return n
	case reflect.Map:
		if a.Len() != b.Len() {
			return differ(path)
		}
		n := 0
		iter := a.MapRange()
		for iter.Next() {
			p := fmt.Sprintf("%s[%v]", path, iter.Key())
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				n += differ(p)
				continue
			}
			n += w.compare(iter.Value(), bv, p, field)
		}
		return n
	case reflect.Struct:
		t := a.Type()
		n := 0
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			key := t.String() + "." + sf.Name
			w.reached[key] = sf.IsExported()
			if !sf.IsExported() {
				continue
			}
			n += w.compare(a.Field(i), b.Field(i), path+"."+sf.Name, key)
		}
		return n
	default:
		if !a.Equal(b) {
			return differ(path)
		}
		return 1
	}
}
