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

// AppendJSON appends the bytes encoding/json writes for r in one pass. A
// non-finite length, which encoding/json refuses, marks w failed instead.
func (r *Result) AppendJSON(w *jsonwire.Writer) {
	w.Raw(`{"Routes":`)
	if r.Routes == nil {
		w.Null()
	} else {
		w.Byte('[')
		for i := range r.Routes {
			if i > 0 {
				w.Byte(',')
			}
			nr := &r.Routes[i]
			w.Raw(`{"Len":`)
			w.Float(nr.Len)
			w.Raw(`,"LenByClass":`)
			w.Floats(nr.LenByClass[:])
			w.Raw(`,"Vias":`)
			w.Int(nr.Vias)
			w.Raw(`,"Class":`)
			w.Int(int(nr.Class))
			w.Byte('}')
		}
		w.Byte(']')
	}
	w.Raw(`,"TotalLen":`)
	w.Float(r.TotalLen)
	w.Raw(`,"LenByClass":`)
	w.Floats(r.LenByClass[:])
	w.Raw(`,"Overflow":`)
	w.Int(r.Overflow)
	w.Raw(`,"MaxCongestion":`)
	w.Float(r.MaxCongestion)
	w.Raw(`,"GX":`)
	w.Int(r.GX)
	w.Raw(`,"GY":`)
	w.Int(r.GY)
	w.Raw(`,"Pitch":`)
	w.Float(r.Pitch)
	w.Byte('}')
}

// WireSize estimates the bytes AppendJSON writes for r.
func (r *Result) WireSize() int { return 256 + 88*len(r.Routes) }

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
