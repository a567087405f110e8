package flow

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tmi3d/internal/binwire"
	"tmi3d/internal/jsonwire"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/route"
	"tmi3d/internal/tech"
)

// sameEncode holds encodeCanonical to encodeJSON, the encoding/json
// reference: the same bytes, or the same error. It reports whether the
// one-pass encoder wrote the bytes itself, without the fallback.
func sameEncode(t *testing.T, what string, v any) (fast bool) {
	t.Helper()
	want, wantErr := encodeJSON(v)
	got, fast := encodeFields(v)
	if fast {
		if wantErr != nil {
			t.Fatalf("%s: the one pass wrote %.120q, encoding/json fails: %v", what, got, wantErr)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(i-60, 0)
			t.Fatalf("%s: the one pass writes %q at byte %d, encoding/json %q",
				what, got[lo:min(i+60, len(got))], i, want[lo:min(i+60, len(want))])
		}
	}
	data, err := encodeCanonical(v, what)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: encodeCanonical error %v, encoding/json error %v", what, err, wantErr)
	case err != nil:
		if inner := errors.Unwrap(err); inner == nil || inner.Error() != wantErr.Error() {
			t.Fatalf("%s: encodeCanonical error %q, encoding/json error %q", what, err, wantErr)
		}
	case !bytes.Equal(data, want):
		t.Fatalf("%s: encodeCanonical writes %d bytes unlike encoding/json's %d", what, len(data), len(want))
	}
	return fast
}

// value is one cached node's artifact value from a run.
type value struct {
	node *Node
	v    any
}

// encodeRuns caches the artifact values of FPU, LDPC and DES runs, 2D and
// T-MI, at a small scale.
var encodeRuns = sync.OnceValues(func() (map[string][]value, error) {
	out := map[string][]value{}
	for _, circuit := range []string{"FPU", "LDPC", "DES"} {
		for _, mode := range []tech.Mode{tech.Mode2D, tech.ModeTMI} {
			name := fmt.Sprintf("%s %v", circuit, mode)
			hook := func(n *Node, exec func() (any, error)) (any, error) {
				v, err := exec()
				if err == nil && n.Cached {
					out[name] = append(out[name], value{n, v})
				}
				return v, err
			}
			cfg := Config{Circuit: circuit, Scale: 0.05, Node: tech.N45, Mode: mode}
			if _, err := NewExecution(cfg, hook).Result(false); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return out, nil
})

// sameBlobs holds the JSON blobs of a binary envelope — every field without
// a binary form — to encoding/json: the same bytes, or a failure where
// encoding/json fails.
func sameBlobs(t *testing.T, what string, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	fields, ok := wireFields(rv.Type())
	if !ok {
		t.Fatalf("%s: no field plan", what)
	}
	js := jsonwire.NewWriter(nil)
	var other fieldEncoder
	for _, f := range fields {
		if f.binary != fieldBlob {
			continue
		}
		fv := rv.Field(f.index)
		got, err := appendJSONField(js, nil, fv, f.codec, &other)
		want, wantErr := encodeJSON(fv.Addr().Interface())
		switch {
		case (err != nil) != (wantErr != nil):
			t.Fatalf("%s.%s: blob error %v, encoding/json error %v", what, f.name, err, wantErr)
		case err == nil && !bytes.Equal(got, bytes.TrimSuffix(want, []byte{'\n'})):
			t.Fatalf("%s.%s: blob %.120q, encoding/json %.120q", what, f.name, got, want)
		}
	}
}

// Every result of real runs encodes in one pass to exactly encoding/json's
// bytes, into a buffer its wire size estimate sized, and every JSON blob of
// their binary artifacts holds encoding/json's bytes. Without the fast-path
// check a one-pass encoder that always fell back would pass; without the
// size check a wire format that outgrew its WireSize constants would only
// slow the encoder down.
func TestEncodeMatchesJSON(t *testing.T) {
	runs, err := encodeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range sortedKeys(runs) {
		for _, a := range runs[run] {
			what := run + " " + a.node.Name
			sameBlobs(t, what, a.v)
			if _, ok := a.v.(*Result); !ok {
				continue
			}
			if !sameEncode(t, what, a.v) {
				t.Errorf("%s: not encoded in one pass", what)
				continue
			}
			rv := reflect.ValueOf(a.v).Elem()
			fields, _ := wireFields(rv.Type())
			got, _ := encodeFields(a.v)
			if est := wireSize(rv, fields); len(got) > est || est > 2*len(got)+1024 {
				t.Errorf("%s: estimated %d bytes for %d", what, est, len(got))
			}
		}
	}
}

// Every envelope field whose type has a WriteBinary is planned onto it in
// the binary envelopes, and every one whose type has an AppendJSON onto that
// in JSON; a type with both (lint reports, fanout samples) is planned onto
// each in its own codec. A type that lost half of either interface would
// otherwise go through encoding/json as a JSON blob, or field by field,
// unnoticed.
func TestEnvelopeFieldsUseAppenders(t *testing.T) {
	appenders, binary, both := 0, 0, 0
	for i := range Nodes {
		n := &Nodes[i]
		if !n.Cached {
			continue
		}
		rt := reflect.TypeOf(n.wire()).Elem()
		fields, ok := wireFields(rt)
		if !ok {
			t.Fatalf("%v: no field plan", rt)
		}
		for _, f := range fields {
			ft := rt.Field(f.index).Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			has := func(method string) bool {
				if ft.Kind() == reflect.Pointer {
					_, ok := ft.MethodByName(method)
					return ok
				}
				_, ok := reflect.PointerTo(ft).MethodByName(method)
				return ok
			}
			hasBinary, hasJSON := has("WriteBinary"), has("AppendJSON")
			switch {
			case hasBinary != (f.binary != fieldBlob):
				t.Errorf("%v.%s: WriteBinary %v, written in binary %v", rt, f.name, hasBinary, f.binary != fieldBlob)
			case hasJSON != (f.codec != fieldJSON):
				t.Errorf("%v.%s: AppendJSON %v, written through it %v", rt, f.name, hasJSON, f.codec != fieldJSON)
			}
			if hasBinary {
				binary++
			}
			if hasJSON {
				appenders++
			}
			if hasBinary && hasJSON {
				both++
			}
		}
	}
	if binary < 14 || appenders < 5 || both < 5 {
		t.Errorf("only %d envelope fields write in binary, %d through appenders, %d both", binary, appenders, both)
	}
}

// Every wire root filled by TestWireFormatTotal's filler — every exported
// field set — encodes to encoding/json's bytes or fails with its error: the
// JSON roots whole, the artifact envelopes blob by blob.
func TestEncodeFilledMatchesJSON(t *testing.T) {
	for _, v := range []any{new(Config), new(Result)} {
		var f filler
		f.fill(reflect.ValueOf(v).Elem())
		name := reflect.TypeOf(v).Elem().Name()
		t.Logf("%s: one pass %v", name, sameEncode(t, name, v))
	}
	for i := range Nodes {
		if n := &Nodes[i]; n.Cached {
			v := n.wire()
			var f filler
			f.fill(reflect.ValueOf(v).Elem())
			sameBlobs(t, n.Name+" artifact", v)
		}
	}
}

// fresh returns a private copy of a real artifact of FPU T-MI, to edit.
func fresh(t *testing.T, node string) any {
	t.Helper()
	runs, err := encodeRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range runs["FPU T-MI"] {
		if a.node.Name != node {
			continue
		}
		data, err := a.node.Encode(a.v)
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.node.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	t.Fatalf("no %s artifact", node)
	return nil
}

// names that need escaping: HTML characters, quotes, control bytes, U+2028
// and invalid UTF-8. Strings inside a type's MarshalJSON are escaped for
// HTML and strings at the envelope's level are not, so these tell the
// levels apart.
var oddNames = []string{`<a&b>`, `q"b\s`, "t\tn\x01", "ls\xe2\x80\xa8", "bad\xff", "del\x7f"}

// sameStored requires a binary artifact value to encode — or to fail where
// encoding/json fails on one of its JSON blobs, with that error — and to
// decode to a value equal to it in every exported field (NaN to NaN) that
// re-encodes to the same bytes, unless encoding/json cannot give one of its
// blobs back either (a string that is not UTF-8 decodes as U+FFFD, so the
// blob's bytes are not the canonical bytes of what they decode to).
func sameStored(t *testing.T, n *Node, v any) {
	t.Helper()
	sameBlobs(t, n.Name, v)
	data, err := n.Encode(v)
	rv := reflect.ValueOf(v).Elem()
	fields, _ := wireFields(rv.Type())
	var wantErr error
	undecodable := false
	for _, f := range fields {
		if f.binary != fieldBlob {
			continue
		}
		fv := rv.Field(f.index)
		b, err := encodeJSON(fv.Addr().Interface())
		if err != nil && wantErr == nil {
			wantErr = err
		}
		if err != nil {
			continue
		}
		back := reflect.New(fv.Type()).Interface()
		if json.Unmarshal(b, back) != nil {
			undecodable = true
		} else if again, err := encodeJSON(back); err != nil || !bytes.Equal(again, b) {
			undecodable = true
		}
	}
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: Encode error %v, encoding/json error %v", n.Name, err, wantErr)
	case err != nil:
		if !strings.Contains(err.Error(), wantErr.Error()) {
			t.Fatalf("%s: Encode error %q, encoding/json error %q", n.Name, err, wantErr)
		}
		return
	}
	back, err := n.Decode(data)
	if (err != nil) != undecodable {
		t.Fatalf("%s: decode error %v, want one: %v", n.Name, err, undecodable)
	}
	if err != nil {
		return
	}
	w := &wireWalk{differs: map[string]string{}, reached: map[string]bool{}}
	w.compare(reflect.ValueOf(v), reflect.ValueOf(back), n.Name, "")
	for _, k := range sortedKeys(w.differs) {
		if _, ok := offWire[k]; !ok {
			t.Errorf("%s: %s does not round-trip (%s)", n.Name, k, w.differs[k])
		}
	}
	if again, err := n.Encode(back); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("%s: the decoded value re-encodes differently (%v)", n.Name, err)
	}
}

// Values EncodeResult's one pass cannot write byte for byte fall back to
// encoding/json whole, which writes the same bytes or returns the same
// error; values it can write, odd names included, stay on the one pass.
// The binary artifacts, the report's included, take every value — NaN,
// ±Inf, odd names, unnamed severities, pins out of order or repeated, nil
// and empty lists — and decode it back exactly; only a JSON blob
// encoding/json refuses fails them.
func TestEncodeFallsBack(t *testing.T) {
	cases := []struct {
		name, node string
		edit       func(v any)
		fast       bool // EncodeResult's one pass writes it (report cases only)
		refused    bool // EncodeResult refuses the lint reports it holds
	}{
		{"NaN footprint", "report", func(v any) { v.(*Result).Footprint = math.NaN() }, false, false},
		{"infinite WNS", "report", func(v any) { v.(*Result).WNS = math.Inf(-1) }, false, false},
		{"NaN fanout sample", "report", func(v any) {
			r := v.(*Result)
			for k := range r.WLSamples {
				r.WLSamples[k] = append(r.WLSamples[k], math.NaN())
				break
			}
		}, false, false},
		{"unsorted pins", "signoff", func(v any) {
			p := v.(*signoffArtifact).Design.Instances[0].Pins
			p[0], p[1] = p[1], p[0]
		}, false, false},
		{"repeated pin", "synth", func(v any) {
			p := v.(*synthArtifact).Design.Instances[0].Pins
			p[1].Name = p[0].Name
		}, false, false},
		{"NaN clock", "synth", func(v any) { v.(*synthArtifact).Design.TargetClockPs = math.NaN() }, false, false},
		{"infinite timing clock", "signoff", func(v any) { v.(*signoffArtifact).Timing.ClockPs = math.Inf(1) }, false, false},
		{"NaN coordinate", "place", func(v any) { v.(*placeArtifact).Snap.X[0] = math.NaN() }, false, false},
		{"infinite die", "opt", func(v any) { v.(*optArtifact).Snap.Die.Hi.Y = math.Inf(1) }, false, false},
		{"infinite route length", "route", func(v any) { v.(*routeArtifact).Route.Routes[0].LenByClass[1] = math.Inf(1) }, false, false},
		{"infinite stats", "signoff", func(v any) { v.(*signoffArtifact).Stats.FinalWNS = math.Inf(1) }, false, false},
		{"non-finite timing", "signoff", func(v any) {
			tm := v.(*signoffArtifact).Timing
			tm.Arrival[0], tm.Slew[0], tm.Required[0] = math.NaN(), math.Inf(1), math.Inf(-1)
			tm.WNS, tm.TNS, tm.HoldWNS = math.Inf(1), math.NaN(), math.Inf(-1)
		}, true, false},
		{"odd names", "signoff", func(v any) {
			a := v.(*signoffArtifact)
			d := a.Design
			for i, s := range oddNames {
				d.Instances[i].Name = s
				d.Instances[i].CellName = s
				d.Nets[i].Name = s
				d.Nets[i].Driver.Pin = s
				d.PIs[s] = i
				a.Snap.Ports[s] = a.Snap.Die.Hi
			}
			d.Name = oddNames[0]
			d.Instances[0].Pins = netlist.Pins{{Name: "A", Net: 0}, {Name: "Z\x7f", Net: 1}, {Name: "\xe2\x80\xa9<", Net: 2}}
			a.Lint = append(a.Lint, &lint.Report{Subject: oddNames[1], Diags: []lint.Diagnostic{
				{Rule: oddNames[0], Severity: lint.Error, Where: oddNames[3], Message: oddNames[5], Hint: oddNames[2]},
			}})
		}, true, false},
		// A severity with no name, or lint text that is not UTF-8, has no
		// JSON that reads back: encoding/json refuses it, and so does
		// EncodeResult, rather than write bytes that never decode. The store
		// keeps it exactly, so a staged run fails where flow.Run and
		// EncodeResult fail.
		{"unnamed severity", "signoff", func(v any) {
			a := v.(*signoffArtifact)
			a.Lint = append(a.Lint, &lint.Report{Subject: "s", Diags: []lint.Diagnostic{{Rule: "R", Severity: lint.Severity(7)}}})
		}, false, true},
		{"unnamed severity in the report", "report", func(v any) {
			r := v.(*Result)
			r.LintReports = append(r.LintReports, &lint.Report{Subject: "s", Diags: []lint.Diagnostic{{Rule: "R", Severity: lint.Severity(7)}}})
		}, false, true},
		{"invalid UTF-8 in lint text", "signoff", func(v any) {
			a := v.(*signoffArtifact)
			a.Lint = append(a.Lint, &lint.Report{Subject: "s", Diags: []lint.Diagnostic{
				{Rule: "R", Severity: lint.Warning, Where: "w", Message: oddNames[4]},
			}})
		}, false, true},
		{"invalid UTF-8 in a lint subject in the report", "report", func(v any) {
			v.(*Result).LintReports[0].Subject = oddNames[4]
		}, false, true},
		{"odd config", "report", func(v any) {
			r := v.(*Result)
			r.Config.Circuit = oddNames[0] + oddNames[4]
			r.LintReports[0].Subject = oddNames[0]
		}, true, false},
		{"nil and empty", "signoff", func(v any) {
			a := v.(*signoffArtifact)
			a.Design.Instances[0].Pins = nil
			a.Design.Instances[1].Pins = netlist.Pins{}
			a.Design.Nets[0].Sinks = nil
			a.Design.POs = nil
			a.Snap.Ports = nil
			a.Snap.Y = []float64{}
			a.Timing.Load = nil
			a.Route.Routes = []route.NetRoute{}
			a.Lint = append(a.Lint, nil, &lint.Report{})
			a.Equiv = nil
		}, true, false},
		{"nil values", "signoff", func(v any) {
			a := v.(*signoffArtifact)
			a.Design, a.Route, a.Timing, a.Stats = nil, nil, nil, nil
			a.Snap.X = nil
		}, true, false},
		{"nil design lists", "synth", func(v any) {
			d := v.(*synthArtifact).Design
			d.Instances, d.Nets, d.PIs = nil, []netlist.Net{}, nil
		}, true, false},
		{"empty result lists", "report", func(v any) {
			r := v.(*Result)
			r.WLSamples = FanoutSamples{}
			r.LintReports = []*lint.Report{}
			r.OptStats = nil
			r.Power = nil
		}, true, false},
		{"fanout sample keys sort as strings", "report", func(v any) {
			v.(*Result).WLSamples = FanoutSamples{2: {1.5}, 10: nil, -3: {}, 100: {2e-7, 1e21}}
		}, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := fresh(t, c.node)
			c.edit(v)
			if c.refused {
				if _, err := EncodeResult(&Result{LintReports: lintReports(v)}); err == nil {
					t.Fatal("EncodeResult wrote lint reports that cannot be read back")
				}
			}
			sameStored(t, node(t, c.node), v)
			if c.node != "report" {
				return
			}
			if fast := sameEncode(t, c.name, v); fast != c.fast {
				t.Fatalf("one pass %v, want %v", fast, c.fast)
			}
		})
	}
}

// lintReports returns the lint reports a report or signoff artifact holds.
func lintReports(v any) []*lint.Report {
	if r, ok := v.(*Result); ok {
		return r.LintReports
	}
	return v.(*signoffArtifact).Lint
}

// node returns the named node of the stage graph.
func node(t *testing.T, name string) *Node {
	t.Helper()
	for i := range Nodes {
		if Nodes[i].Name == name {
			return &Nodes[i]
		}
	}
	t.Fatalf("no stage %s", name)
	return nil
}

// Encoding a value that is not a pointer to an envelope falls back whole.
func TestEncodeNonEnvelope(t *testing.T) {
	for _, v := range []any{nil, (*Result)(nil), Result{}, 3, map[string]int{"a": 1}, &struct {
		Config `json:"config"`
	}{}} {
		if sameEncode(t, fmt.Sprintf("%T", v), v) {
			t.Errorf("%T took the one pass", v)
		}
	}
}

// FuzzSamplesEncode holds FanoutSamples.AppendJSON to json.Marshal of the
// same map[int][]float64: equal bytes, or a failed writer where
// encoding/json fails. The binary form takes every one of them and reads it
// back exactly, NaN bits, nil and empty included.
func FuzzSamplesEncode(f *testing.F) {
	f.Add(int64(1), int64(10), 1.5, 2.5, uint8(0))
	f.Add(int64(-3), int64(2), 1e21, 1e-7, uint8(1))
	f.Add(int64(0), int64(0), math.NaN(), 0.0, uint8(2))
	f.Add(int64(100), int64(9), math.Inf(1), math.Copysign(0, -1), uint8(3))
	f.Fuzz(func(t *testing.T, k1, k2 int64, x, y float64, shape uint8) {
		s := FanoutSamples{int(k1): {x, y}, int(k2): {y}}
		switch shape % 4 {
		case 1:
			s[int(k2)] = nil
		case 2:
			s[int(k1)] = []float64{}
		case 3:
			s = nil
		}
		w := jsonwire.NewWriter(nil)
		s.AppendJSON(w)
		want, err := json.Marshal(map[int][]float64(s))
		if w.OK() != (err == nil) {
			t.Fatalf("%v: writer ok %v, encoding/json error %v", s, w.OK(), err)
		}
		if err == nil && !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%v: writes %s, encoding/json %s", s, w.Bytes(), want)
		}
		// The binary form spells nil, empty and every float's bits apart,
		// so equal bytes are an exact round trip.
		data := samplesBinary(s)
		r := binwire.NewReader(data)
		var back FanoutSamples
		back.ReadBinary(r)
		if !r.Done() || !bytes.Equal(samplesBinary(back), data) {
			t.Fatalf("%v: binary round trip gives %v (done %v)", s, back, r.Done())
		}
	})
}

// FuzzArtifactEncode writes arbitrary values into a real artifact of every
// cached node of a tiny run — the fuzzed bytes, eight at a time, as the bit
// patterns of its first floats, and as its first strings — and requires the
// binary envelopes to store the result exactly (sameStored) and the report
// also to encode as encoding/json does.
func FuzzArtifactEncode(f *testing.F) {
	arts := artifacts(f)
	for i, a := range arts {
		f.Add(uint8(i), a.data[:min(len(a.data), 8*(i+1))])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		a := arts[int(which)%len(arts)]
		v, err := a.node.Decode(a.data)
		if err != nil {
			t.Fatal(err)
		}
		perturb(reflect.ValueOf(v).Elem(), data, 16)
		if a.node.Name == "report" {
			sameEncode(t, a.node.Name, v)
		}
		sameStored(t, a.node, v)
	})
}

// perturb overwrites the first n floats and the first n strings reachable
// from v (exported fields only, slices and pointers followed, maps left
// alone) with values cut from data.
func perturb(v reflect.Value, data []byte, n int) {
	floats, strs := n, n
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if floats == 0 && strs == 0 {
			return
		}
		switch v.Kind() {
		case reflect.Float64:
			if floats > 0 && len(data) >= 8 {
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
				floats--
			}
		case reflect.String:
			if strs > 0 && len(data) > 0 {
				k := min(len(data), int(data[0]%8)+1)
				v.SetString(string(data[:k]))
				data = data[k:]
				strs--
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len() && i < n; i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		}
	}
	walk(v)
}
