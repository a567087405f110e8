package route

import (
	"bytes"
	"encoding/json"

	"tmi3d/internal/jsonwire"
	"tmi3d/internal/tech"
)

// UnmarshalJSON decodes a result, replacing r. The canonical bytes
// encoding/json writes for a Result decode in one pass (decodeResult); any
// other spelling decodes through encoding/json into the method-free
// resultJSON, with the same result.
func (r *Result) UnmarshalJSON(b []byte) error {
	out, ok := decodeResult(b)
	if !ok {
		var in resultJSON
		if err := json.Unmarshal(b, &in); err != nil {
			return err
		}
		out = (*Result)(&in)
	}
	*r = *out
	return nil
}

// resultJSON is Result without its methods: encoding/json decodes it
// field by field.
type resultJSON Result

// decodeResult reads the canonical bytes of a result in one pass, or
// reports false.
func decodeResult(b []byte) (*Result, bool) {
	r := jsonwire.NewReader(b)
	out := &Result{}
	r.Delim('{')
	r.Key("Routes")
	if !r.Null() {
		r.Delim('[')
		// Each route spells one '{' (its LenByClass is an array), the
		// result one more.
		routes := 0
		if end := bytes.LastIndex(b, []byte(`],"TotalLen":`)); end > 0 {
			routes = bytes.Count(b[:end], []byte{'{'}) - 1
		}
		out.Routes = make([]NetRoute, 0, max(routes, 0))
		for n := 0; r.More(']', n); n++ {
			var nr NetRoute
			r.Delim('{')
			r.Key("Len")
			nr.Len = r.Float()
			r.Delim(',')
			r.Key("LenByClass")
			nr.LenByClass = readClasses(r)
			r.Delim(',')
			r.Key("Vias")
			nr.Vias = r.Int()
			r.Delim(',')
			r.Key("Class")
			nr.Class = tech.LayerClass(r.Int())
			r.Delim('}')
			out.Routes = append(out.Routes, nr)
		}
	}
	r.Delim(',')
	r.Key("TotalLen")
	out.TotalLen = r.Float()
	r.Delim(',')
	r.Key("LenByClass")
	out.LenByClass = readClasses(r)
	r.Delim(',')
	r.Key("Overflow")
	out.Overflow = r.Int()
	r.Delim(',')
	r.Key("MaxCongestion")
	out.MaxCongestion = r.Float()
	r.Delim(',')
	r.Key("GX")
	out.GX = r.Int()
	r.Delim(',')
	r.Key("GY")
	out.GY = r.Int()
	r.Delim(',')
	r.Key("Pitch")
	out.Pitch = r.Float()
	r.Delim('}')
	return out, r.Done()
}

// readClasses reads a per-class array of exactly NumClasses numbers (a
// shorter or longer one is not canonical: encoding/json zero-fills or drops).
func readClasses(r *jsonwire.Reader) (v [NumClasses]float64) {
	r.Delim('[')
	for i := range v {
		if i > 0 {
			r.Delim(',')
		}
		v[i] = r.Float()
	}
	r.Delim(']')
	return v
}
