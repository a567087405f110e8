package flow

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"tmi3d/internal/binwire"
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
// optimize the netlist) clones it first. The one exception is a gating
// stage's Lint and Equiv fields: its gate pair (gates.go) fills them after
// the body returned, and every reader joins the pair first.
//
// The four uncached nodes return plain in-process values. Each cached node
// returns an artifact value whose stored bytes decode to an exact inverse,
// so a value decoded from a store is interchangeable with the value that was
// encoded. Every cached node's artifact is an envelope — the report node's
// is the Result itself — stored in binary (internal/binwire): its fields in
// declaration order, the netlist, placement snapshot, route, timing, lint
// reports and fanout samples in their own binary forms
// (WriteBinary/ReadBinary), and every other field as a length-prefixed blob
// of its canonical JSON (codec.go). The first four are written and read by
// the store alone, so they have no JSON form at all; the lint reports and
// fanout samples keep theirs for EncodeResult, and the small fields keep
// theirs. Fields tagged json:"-" stay off both. TestWireFormatTotal fills
// every envelope's fields, round-trips it and compares every field (the
// offWire table lists the fields deliberately left off); the stage engine's
// TestArtifactRoundTrip re-encodes the envelopes of real runs, and its
// TestPublishedValueIsStored checks that a published value encodes to the
// stored bytes.

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
	Model *wlm.Model
	Util  float64
}

// synthArtifact is the mapped netlist with its synthesis statistics and the
// post-synth gate reports.
type synthArtifact struct {
	Design *netlist.Design
	Stats  netlist.Stats
	Lint   []*lint.Report
	Equiv  []*equiv.Report

	gates *gatePair // filling Lint and Equiv; nil once decoded
}

// placeArtifact is the placement geometry; the design it places is the synth
// artifact, rebound on consumption.
type placeArtifact struct {
	Snap place.Snapshot
}

// optArtifact is the pre-route-closed implementation: the optimized netlist,
// its placement (optimization moves cells and adds buffers), the pre-route
// optimization statistics, and the post-place gate reports.
type optArtifact struct {
	Design   *netlist.Design
	Snap     place.Snapshot
	PreStats *opt.Stats
	Lint     []*lint.Report
	Equiv    []*equiv.Report

	gates *gatePair // filling Lint and Equiv; nil once decoded
}

// routeArtifact is the first global route of the pre-route-closed placement;
// sign-off extracts its parasitics for post-route optimization.
type routeArtifact struct {
	Route *route.Result
}

// signoffArtifact is the converged final implementation: the post-route
// optimized netlist and placement, the final route and sign-off timing, the
// accumulated optimization statistics (pre-route + post-route + ECO), and the
// post-route gate reports.
type signoffArtifact struct {
	Design *netlist.Design
	Snap   place.Snapshot
	Route  *route.Result
	Timing *sta.Result
	Stats  *opt.Stats
	Lint   []*lint.Report
	Equiv  []*equiv.Report

	gates *gatePair // filling Lint and Equiv; nil once decoded
}

// powerArtifact is the sign-off power report plus the clock tree it charged.
type powerArtifact struct {
	Power *power.Report
	Clock *cts.Result
}

// binaryValue is a type with a binary form: the netlist, placement snapshot,
// route, timing, lint report and fanout samples.
type binaryValue interface {
	WriteBinary(w *binwire.Writer)
	ReadBinary(r *binwire.Reader)
}

var binaryType = reflect.TypeFor[binaryValue]()

// encodeArtifact writes the binary form of the envelope v points to: each
// field in declaration order, a binary value as its WriteBinary writes it (a
// pointer behind a presence flag, a list of pointers as its length, nil
// apart from empty, then each pointer), any other as a blob of the JSON
// appendField writes for it, null for nil. The fields share one symbol
// table, so the snapshot's port names refer back to the design's.
func encodeArtifact(v any) ([]byte, error) {
	rv := reflect.ValueOf(v).Elem()
	fields, ok := wireFields(rv.Type())
	if !ok {
		return nil, fmt.Errorf("%T is not an artifact envelope", v)
	}
	w := binwire.NewWriter(make([]byte, 0, 4<<10))
	js := jsonwire.NewWriter(nil)
	var other fieldEncoder
	var err error
	for _, f := range fields {
		fv := rv.Field(f.index)
		switch f.binary {
		case fieldBinary:
			fv.Addr().Interface().(binaryValue).WriteBinary(w)
		case fieldBinaryPointer:
			writePointer(w, fv)
		case fieldBinaryList:
			w.Len(fv.Len(), fv.IsNil())
			for i := 0; i < fv.Len(); i++ {
				writePointer(w, fv.Index(i))
			}
		default:
			w.BlobFunc(func(b []byte) []byte {
				var blob []byte
				blob, err = appendJSONField(js, b, fv, f.codec, &other)
				return blob
			})
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.name, err)
			}
		}
	}
	return w.Bytes(), nil
}

// writePointer writes the binary value the pointer fv holds behind a
// presence flag.
func writePointer(w *binwire.Writer, fv reflect.Value) {
	w.Bool(!fv.IsNil())
	if !fv.IsNil() {
		fv.Interface().(binaryValue).WriteBinary(w)
	}
}

// readPointer reads what writePointer wrote into the nil pointer fv.
func readPointer(r *binwire.Reader, fv reflect.Value) {
	if r.Bool() {
		fv.Set(reflect.New(fv.Type().Elem()))
		fv.Interface().(binaryValue).ReadBinary(r)
	}
}

// appendJSONField appends the canonical JSON of one envelope field to b,
// through js: the bytes appendField writes, or encoding/json's where
// appendField cannot write them.
func appendJSONField(js *jsonwire.Writer, b []byte, fv reflect.Value, c fieldCodec, other *fieldEncoder) ([]byte, error) {
	js.Reset(b)
	appendField(js, fv, c, other)
	if js.OK() {
		return js.Bytes(), nil
	}
	j, err := encodeJSON(fv.Addr().Interface())
	return append(b, bytes.TrimSuffix(j, []byte{'\n'})...), err
}

// decodeArtifact fills the envelope v points to, which must be zero, from
// the bytes encodeArtifact wrote. It takes only those bytes: a JSON blob
// that decodes but is not the canonical spelling of its value, or anything
// after the last field, is an error, so decoded bytes always re-encode to
// themselves.
func decodeArtifact(data []byte, v any) error {
	rv := reflect.ValueOf(v).Elem()
	fields, ok := wireFields(rv.Type())
	if !ok {
		return fmt.Errorf("%T is not an artifact envelope", v)
	}
	r := binwire.NewReader(data)
	js := jsonwire.NewWriter(nil)
	var other fieldEncoder
	for _, f := range fields {
		fv := rv.Field(f.index)
		switch f.binary {
		case fieldBinary:
			fv.Addr().Interface().(binaryValue).ReadBinary(r)
		case fieldBinaryPointer:
			readPointer(r, fv)
		case fieldBinaryList:
			// A pointer takes at least its presence flag.
			if n, null := r.Len(1); !null && r.OK() {
				fv.Set(reflect.MakeSlice(fv.Type(), n, n))
				for i := 0; i < n; i++ {
					readPointer(r, fv.Index(i))
				}
			}
		default:
			blob := r.Blob()
			if !r.OK() {
				break
			}
			if err := json.Unmarshal(blob, fv.Addr().Interface()); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
			if again, err := appendJSONField(js, make([]byte, 0, len(blob)), fv, f.codec, &other); err != nil || !bytes.Equal(again, blob) {
				return fmt.Errorf("field %s: not canonical JSON", f.name)
			}
		}
		if !r.OK() {
			return fmt.Errorf("field %s: malformed", f.name)
		}
	}
	if !r.Done() {
		return errors.New("bytes after the last field")
	}
	return nil
}

// Encode renders a cached node's artifact value as its stored bytes, its
// binary envelope. It waits for the gates checking v first, so it never
// encodes half-filled reports, and refuses an artifact whose gates failed.
func (n *Node) Encode(v any) ([]byte, error) {
	if err := n.Wait(v); err != nil {
		return nil, fmt.Errorf("flow: encode %s artifact: %w", n.Name, err)
	}
	b, err := encodeArtifact(v)
	if err != nil {
		return nil, fmt.Errorf("flow: encode %s artifact: %w", n.Name, err)
	}
	return b, nil
}

// Decode parses a cached node's stored bytes into its artifact value — the
// exact inverse of Encode.
func (n *Node) Decode(data []byte) (any, error) {
	if n.wire == nil {
		return nil, fmt.Errorf("flow: stage %s has no artifact codec", n.Name)
	}
	v := n.wire()
	if err := decodeArtifact(data, v); err != nil {
		return nil, fmt.Errorf("flow: decode %s artifact: %w", n.Name, err)
	}
	return v, nil
}
