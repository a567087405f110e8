package flow

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"tmi3d/internal/binwire"
	"tmi3d/internal/jsonwire"
)

// The JSON wire codec. A Result — serve's payload — and the small fields of
// the stage store's binary envelopes (statistics, equivalence reports, the
// wire load model, power and clock tree) are JSON. It is canonical: the
// bytes encoding/json writes with sorted map keys and HTML escaping off at
// the envelope's level. Strings a type's own MarshalJSON writes through
// json.Marshal — the lint and equivalence reports' — keep json.Marshal's
// escaping of '<', '>' and '&' (a lint subject <s&> is written
// "\u003cs\u0026\u003e"); every other string, Config.Circuit <a&b> for one,
// is written as it is. Encode writes those bytes in one pass (encodeFields,
// and the appenders of the lint reports and fanout samples inside it),
// leaving to encoding/json only the small fields and any value the
// appenders cannot write identically. Decode is encoding/json's.
// TestEncodeMatchesJSON holds the one-pass encoder to encoding/json on the
// results of real runs.

// EncodeResult renders the canonical wire encoding of a flow result: compact
// JSON with sorted map keys, HTML escaping only inside the lint and
// equivalence reports, terminated by a newline. Two encodings of equal
// results are byte-identical; this is the payload the serving layer stores
// on disk, caches in its LRU, and serves to clients.
func EncodeResult(r *Result) ([]byte, error) {
	b, err := encodeCanonical(r, "result")
	if err != nil {
		return nil, err
	}
	// The LRU keeps the payload: keep none of the slack the buffer's size
	// estimate left (up to a fifth of an FPU result, ~4 MB over a full LRU).
	return slices.Clone(b), nil
}

// DecodeResult parses a payload written by EncodeResult. The returned result
// carries no Implementation (it never goes over the wire).
func DecodeResult(data []byte) (*Result, error) {
	r := new(Result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("flow: decode result: %w", err)
	}
	return r, nil
}

// FanoutSamples maps a fanout to the routed lengths of its nets (µm).
type FanoutSamples map[int][]float64

// AppendJSON appends the bytes encoding/json writes for the samples in one
// pass: keys in the order of their decimal spellings, as encoding/json sorts
// map keys. A non-finite length, which encoding/json refuses, marks w failed
// instead.
func (s FanoutSamples) AppendJSON(w *jsonwire.Writer) {
	if s == nil {
		w.Null()
		return
	}
	keys := make([]string, 0, len(s))
	for fanout := range s {
		keys = append(keys, strconv.Itoa(fanout))
	}
	slices.Sort(keys)
	w.Byte('{')
	for i, k := range keys {
		if i > 0 {
			w.Byte(',')
		}
		fanout, _ := strconv.Atoi(k)
		w.Byte('"')
		w.Raw(k)
		w.Raw(`":`)
		w.Floats(s[fanout])
	}
	w.Byte('}')
}

// WireSize estimates the bytes AppendJSON writes for s.
func (s FanoutSamples) WireSize() int {
	n := 0
	for _, lengths := range s {
		n += 8 + 19*len(lengths)
	}
	return n
}

// WriteBinary writes the samples in the stage store's binary form: the
// number of fanouts (nil apart from empty), then each fanout in ascending
// order with its lengths.
func (s FanoutSamples) WriteBinary(w *binwire.Writer) {
	fanouts := make([]int, 0, len(s))
	for fanout := range s {
		fanouts = append(fanouts, fanout)
	}
	slices.Sort(fanouts)
	w.Len(len(fanouts), s == nil)
	for _, fanout := range fanouts {
		w.Int(fanout)
		w.Floats(s[fanout])
	}
}

// ReadBinary reads samples written by WriteBinary into s, which must be nil.
// Fanouts out of ascending order or repeated, which a writer never writes,
// fail r.
func (s *FanoutSamples) ReadBinary(r *binwire.Reader) {
	// A fanout takes at least a byte for itself and one for its lengths.
	n, null := r.Len(2)
	if null || !r.OK() {
		return
	}
	m := make(FanoutSamples, n)
	prev := 0
	for i := 0; i < n; i++ {
		fanout := r.Int()
		if i > 0 && fanout <= prev {
			r.Fail()
		}
		prev = fanout
		m[fanout] = r.Floats()
	}
	*s = m
}

// encodeCanonical renders the canonical wire bytes of a value: compact JSON
// with sorted map keys and HTML escaping off at the envelope's level,
// terminated by a newline. It writes them in one pass (encodeFields); a
// value that pass cannot write byte for byte as encoding/json does goes to
// encodeJSON whole, which writes the same bytes or returns encoding/json's
// error.
func encodeCanonical(v any, what string) ([]byte, error) {
	if b, ok := encodeFields(v); ok {
		return b, nil
	}
	b, err := encodeJSON(v)
	if err != nil {
		return nil, fmt.Errorf("flow: encode %s: %w", what, err)
	}
	return b, nil
}

// encodeJSON renders v through encoding/json with HTML escaping off: the
// canonical bytes by definition, and encodeFields' fallback.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// appender is a wire type that writes its own canonical bytes: exactly what
// encoding/json writes for it, or a failed writer where those would differ.
// WireSize estimates how many, to size the buffer once.
type appender interface {
	AppendJSON(w *jsonwire.Writer)
	WireSize() int
}

var appenderType = reflect.TypeFor[appender]()

// encodeFields writes the canonical bytes of the struct v points to in one
// pass, or reports false. It walks the fields as encoding/json does — in
// declaration order, omitempty fields left out when empty — and writes each
// value with appendField.
func encodeFields(v any) ([]byte, bool) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, false
	}
	fields, ok := wireFields(rv.Type().Elem())
	if !ok {
		return nil, false
	}
	rv = rv.Elem()
	w := jsonwire.NewWriter(make([]byte, 0, wireSize(rv, fields)))
	var other fieldEncoder
	w.Byte('{')
	n := 0
	for _, f := range fields {
		fv := rv.Field(f.index)
		if f.omitEmpty && isEmptyValue(fv) {
			continue
		}
		if n > 0 {
			w.Byte(',')
		}
		n++
		w.Raw(f.key)
		appendField(w, fv, f.codec, &other)
	}
	w.Raw("}\n")
	return w.Bytes(), w.OK()
}

// appendField writes the JSON of one field's value fv: with its AppendJSON
// where it has one (a nil pointer as null), a list of such values
// ([]*lint.Report) element by element, and any other value through
// encoding/json with HTML escaping off, which is how encoding/json writes it
// inside an envelope.
func appendField(w *jsonwire.Writer, fv reflect.Value, c fieldCodec, other *fieldEncoder) {
	switch c {
	case fieldAppender, fieldPointer:
		if a, ok := fieldAppenderOf(fv, c); ok {
			a.AppendJSON(w)
		} else {
			w.Null()
		}
	case fieldList:
		if fv.IsNil() {
			w.Null()
			return
		}
		w.Byte('[')
		for i := 0; i < fv.Len(); i++ {
			if i > 0 {
				w.Byte(',')
			}
			if a, ok := fieldAppenderOf(fv.Index(i), fieldPointer); ok {
				a.AppendJSON(w)
			} else {
				w.Null()
			}
		}
		w.Byte(']')
	default:
		other.encode(w, fv.Addr().Interface())
	}
}

// wireSize estimates the bytes encodeFields writes for the envelope rv:
// the appenders' WireSize and 1 kB for the small fields. Sizing the buffer
// once matters: grown by append from 1 kB instead, an FPU@0.1 signoff
// encode allocates 5.2 MB instead of 1.0 MB and runs 30% slower (synth and
// opt 40%). TestEncodeMatchesJSON holds the estimate to real artifacts.
func wireSize(rv reflect.Value, fields []wireField) int {
	size := 1024
	for _, f := range fields {
		fv := rv.Field(f.index)
		if f.codec == fieldList {
			for i := 0; i < fv.Len(); i++ {
				if a, ok := fieldAppenderOf(fv.Index(i), fieldPointer); ok {
					size += a.WireSize()
				}
			}
		} else if a, ok := fieldAppenderOf(fv, f.codec); ok {
			size += a.WireSize()
		}
	}
	return size
}

// fieldAppenderOf returns the appender of a fieldAppender or fieldPointer
// field, or false for a nil pointer or a field of another codec.
func fieldAppenderOf(fv reflect.Value, c fieldCodec) (appender, bool) {
	switch {
	case c == fieldAppender:
		return fv.Addr().Interface().(appender), true
	case c == fieldPointer && !fv.IsNil():
		return fv.Interface().(appender), true
	}
	return nil, false
}

// fieldEncoder writes the fields without an appender through one
// encoding/json Encoder.
type fieldEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encode writes what encoding/json writes for the value p points to, or
// marks w failed if encoding/json fails.
func (e *fieldEncoder) encode(w *jsonwire.Writer, p any) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
		e.enc.SetEscapeHTML(false)
	}
	e.buf.Reset()
	if err := e.enc.Encode(p); err != nil {
		w.Fail()
		return
	}
	w.RawBytes(bytes.TrimSuffix(e.buf.Bytes(), []byte{'\n'}))
}

// isEmptyValue reports whether encoding/json leaves out v under omitempty.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// wireField is one field of an envelope as encoding/json spells it, with
// how each codec writes it. The two are planned apart: a type with both an
// AppendJSON and a WriteBinary (lint reports, fanout samples) is written by
// the first in JSON and by the second in the store's binary envelopes.
type wireField struct {
	index     int
	name      string // the JSON key
	key       string // the key as written: "name":
	omitEmpty bool
	codec     fieldCodec  // how encodeFields writes it as JSON
	binary    binaryCodec // how encodeArtifact writes it
}

// fieldCodec selects how encodeFields writes a field.
type fieldCodec int

const (
	fieldJSON     fieldCodec = iota // through encoding/json
	fieldAppender                   // a value whose address has AppendJSON
	fieldPointer                    // a pointer with AppendJSON
	fieldList                       // a slice of pointers with AppendJSON
)

// binaryCodec selects how encodeArtifact writes a field.
type binaryCodec int

const (
	fieldBlob          binaryCodec = iota // a blob of its JSON, written as encodeFields writes it
	fieldBinary                           // a value whose address has WriteBinary
	fieldBinaryPointer                    // a pointer with WriteBinary
	fieldBinaryList                       // a slice of pointers with WriteBinary
)

// wirePlans caches wireFields per envelope type.
var wirePlans sync.Map // reflect.Type → []wireField, or nil

// wireFields returns the fields encoding/json writes for the struct type t,
// in order, or false for a type the one-pass codecs leave to encoding/json:
// not a struct, a marshaler itself, or one with a field
// encoding/json spells some other way (embedded, a tag option other than
// omitempty, a key that is not a plain identifier, two fields of one key).
func wireFields(t reflect.Type) ([]wireField, bool) {
	if plan, ok := wirePlans.Load(t); ok {
		fields := plan.([]wireField)
		return fields, fields != nil
	}
	fields := planFields(t)
	wirePlans.Store(t, fields)
	return fields, fields != nil
}

var (
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
)

// planFields builds wireFields' answer, nil for a type it refuses.
func planFields(t reflect.Type) []wireField {
	if t.Kind() != reflect.Struct {
		return nil
	}
	for _, m := range []reflect.Type{marshalerType, textMarshalerType} {
		if reflect.PointerTo(t).Implements(m) {
			return nil
		}
	}
	fields := []wireField{}
	seen := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		switch {
		case !sf.IsExported() || (name == "-" && opts == ""):
			continue
		case sf.Anonymous || (opts != "" && opts != "omitempty"):
			return nil
		case name == "":
			name = sf.Name
		}
		if !identifier(name) || seen[name] {
			return nil
		}
		seen[name] = true
		f := wireField{index: i, name: name, key: `"` + name + `":`, omitEmpty: opts == "omitempty"}
		ft := sf.Type
		switch {
		case ft.Kind() == reflect.Pointer && ft.Implements(appenderType):
			f.codec = fieldPointer
		case ft.Kind() != reflect.Pointer && reflect.PointerTo(ft).Implements(appenderType):
			f.codec = fieldAppender
		case pointerList(ft, appenderType):
			f.codec = fieldList
		}
		switch {
		case ft.Kind() == reflect.Pointer && ft.Implements(binaryType):
			f.binary = fieldBinaryPointer
		case ft.Kind() != reflect.Pointer && reflect.PointerTo(ft).Implements(binaryType):
			f.binary = fieldBinary
		case pointerList(ft, binaryType):
			f.binary = fieldBinaryList
		}
		fields = append(fields, f)
	}
	return fields
}

// pointerList reports whether t is a slice of pointers that implement i.
func pointerList(t, i reflect.Type) bool {
	return t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Pointer && t.Elem().Implements(i)
}

// identifier reports whether name is letters, digits and underscores only:
// a key encoding/json takes from the tag as it is and writes unescaped.
func identifier(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range []byte(name) {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}
