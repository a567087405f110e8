package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"tmi3d/internal/cts"
	"tmi3d/internal/equiv"
	"tmi3d/internal/jsonwire"
	"tmi3d/internal/liberty"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
	"tmi3d/internal/wlm"
)

// Stage values. Every node of the stage graph (graph.go) returns one value;
// downstream bodies read it and never mutate it, so one value can be shared
// by every consumer in the run and, for cached nodes, by every run a cache
// tier serves it to. A body that needs to change an input (opt and signoff
// optimize the netlist) clones it first.
//
// The four uncached nodes return plain in-process values. Each cached node
// returns an artifact envelope, which is also its wire form: every envelope
// encodes canonically (encoding/json with sorted map keys, HTML escaping off)
// and decodes to an exact inverse, so a value decoded from a store is
// interchangeable with the value that was encoded. Decode reads those
// canonical bytes in one pass (decodeCanonical, and the one-pass decoders of
// the design, snapshot, route, timing and lint reports inside it) and leaves
// every other spelling to encoding/json, which gives the same value or the
// same error. TestWireFormatTotal fills every envelope's fields, round-trips
// it and compares every field (the offWire table lists the fields
// deliberately left off); the stage engine's TestArtifactRoundTrip
// re-encodes the envelopes of real runs, and its TestPublishedValueIsStored
// checks that a published value encodes to the stored bytes. The report
// node's artifact is the Result itself, whose wire form is EncodeResult's
// payload.

// setupValue is the setup node's output: the per-run constants every later
// stage draws from.
type setupValue struct {
	// seed is the run's RNG stream (DeriveSeed).
	seed uint64
	// calib is the clock calibration factor opt applies to a ClockPs override.
	calib float64
	// res is the resistivity scaling route, signoff and power rebuild the RC
	// table from: their keys omit ResistivityScale, but setup's key has it
	// and their artifact IDs include setup's.
	res map[tech.LayerClass]float64
}

// libraryValue is the library node's output: the technology and the
// (possibly pin-cap-scaled) cell library.
type libraryValue struct {
	tech *tech.Technology
	lib  *liberty.Library
}

// wlmArtifact is the wire-load-model node's output: the model plus the
// resolved target utilization (placement consumes both).
type wlmArtifact struct {
	Model *wlm.Model `json:"model"`
	Util  float64    `json:"util"`
}

// synthArtifact is the mapped netlist with its synthesis statistics and the
// post-synth gate reports.
type synthArtifact struct {
	Design *netlist.Design `json:"design"`
	Stats  netlist.Stats   `json:"stats"`
	Lint   []*lint.Report  `json:"lint,omitempty"`
	Equiv  []*equiv.Report `json:"equiv,omitempty"`
}

// placeArtifact is the placement geometry; the design it places is the synth
// artifact, rebound on consumption.
type placeArtifact struct {
	Snap place.Snapshot `json:"snapshot"`
}

// optArtifact is the pre-route-closed implementation: the optimized netlist,
// its placement (optimization moves cells and adds buffers), the pre-route
// optimization statistics, and the post-place gate reports.
type optArtifact struct {
	Design   *netlist.Design `json:"design"`
	Snap     place.Snapshot  `json:"snapshot"`
	PreStats *opt.Stats      `json:"pre_stats"`
	Lint     []*lint.Report  `json:"lint,omitempty"`
	Equiv    []*equiv.Report `json:"equiv,omitempty"`
}

// routeArtifact is the first global route of the pre-route-closed placement;
// sign-off extracts its parasitics for post-route optimization.
type routeArtifact struct {
	Route *route.Result `json:"route"`
}

// signoffArtifact is the converged final implementation: the post-route
// optimized netlist and placement, the final route and sign-off timing, the
// accumulated optimization statistics (pre-route + post-route + ECO), and the
// post-route gate reports.
type signoffArtifact struct {
	Design *netlist.Design `json:"design"`
	Snap   place.Snapshot  `json:"snapshot"`
	Route  *route.Result   `json:"route"`
	Timing *sta.Result     `json:"timing"`
	Stats  *opt.Stats      `json:"stats"`
	Lint   []*lint.Report  `json:"lint,omitempty"`
	Equiv  []*equiv.Report `json:"equiv,omitempty"`
}

// powerArtifact is the sign-off power report plus the clock tree it charged.
type powerArtifact struct {
	Power *power.Report `json:"power"`
	Clock *cts.Result   `json:"clock_tree"`
}

// encodeCanonical renders the canonical wire bytes of a value: compact JSON
// with sorted map keys and unescaped HTML, terminated by a newline.
func encodeCanonical(v any, what string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("flow: encode %s: %w", what, err)
	}
	return buf.Bytes(), nil
}

// Encode renders a cached node's artifact value as its canonical stored
// bytes.
func (n *Node) Encode(v any) ([]byte, error) {
	return encodeCanonical(v, n.Name+" artifact")
}

// Decode parses a cached node's stored bytes into its artifact value — the
// exact inverse of Encode. Canonical bytes decode in one pass (decodeFast);
// anything else decodes through json.Unmarshal, with the same result.
func (n *Node) Decode(data []byte) (any, error) {
	if n.wire == nil {
		return nil, fmt.Errorf("flow: stage %s has no artifact codec", n.Name)
	}
	if v, ok := n.decodeFast(data); ok {
		return v, nil
	}
	v := n.wire()
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("flow: decode %s artifact: %w", n.Name, err)
	}
	return v, nil
}

// decodeFast decodes canonical artifact bytes in one pass, or reports false.
func (n *Node) decodeFast(data []byte) (any, bool) {
	v := n.wire()
	return v, decodeCanonical(data, v)
}

// decodeCanonical decodes the bytes encodeCanonical writes for the struct v
// points to in one pass over its fields, or reports false, leaving v partly
// filled. It walks the fields in declaration order, matching each one's JSON
// key exactly; an omitempty field may be absent. Each value's bytes go
// straight to the field's UnmarshalJSON when it has one, element by element
// to it for a list of such values ([]*lint.Report), and to json.Unmarshal
// otherwise. Every UnmarshalJSON in the wire set reads canonical bytes
// strictly and hands anything else to json.Unmarshal, which validates them.
// Any other shape — an unknown, repeated, reordered or case-variant key, a
// null, whitespace, or anything after the one closing newline — reports
// false, and the caller decodes the whole value with json.Unmarshal.
func decodeCanonical(data []byte, v any) bool {
	rv := reflect.ValueOf(v).Elem()
	t := rv.Type()
	r := jsonwire.NewReader(data)
	r.Delim('{')
	n := 0
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		name, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		switch {
		case !sf.IsExported() || (name == "-" && opts == ""):
			continue
		case sf.Anonymous || (opts != "" && opts != "omitempty"):
			return false // a shape encoding/json spells differently
		case name == "":
			name = sf.Name
		}
		if !r.Field(name, n) {
			if opts == "omitempty" {
				continue
			}
			return false
		}
		n++
		if !decodeValue(r, rv.Field(i)) {
			return false
		}
	}
	r.Delim('}')
	r.Delim('\n')
	return r.Done()
}

var unmarshalerType = reflect.TypeFor[json.Unmarshaler]()

// decodeValue decodes the value at r into f, or reports false.
func decodeValue(r *jsonwire.Reader, f reflect.Value) bool {
	if r.Null() {
		return false
	}
	if t := f.Type(); t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Pointer && t.Elem().Implements(unmarshalerType) {
		r.Delim('[')
		s := reflect.MakeSlice(t, 0, 0)
		for n := 0; r.More(']', n); n++ {
			e := reflect.New(t.Elem().Elem())
			if !decodeValue(r, e.Elem()) {
				return false
			}
			s = reflect.Append(s, e)
		}
		f.Set(s)
		return r.OK()
	}
	b := r.Skip()
	if !r.OK() {
		return false
	}
	target := f.Addr()
	if f.Kind() == reflect.Pointer {
		f.Set(reflect.New(f.Type().Elem()))
		target = f
	}
	if u, ok := target.Interface().(json.Unmarshaler); ok {
		return u.UnmarshalJSON(b) == nil
	}
	return json.Unmarshal(b, target.Interface()) == nil
}
