package flow

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"tmi3d/internal/jsonwire"
)

// EncodeResult renders the canonical wire encoding of a flow result: compact
// JSON with sorted map keys and unescaped HTML, terminated by a newline.
// Two encodings of equal results are byte-identical; this is the payload the
// serving layer stores on disk, caches in its LRU, and serves to clients,
// and the stored bytes of the report node's artifact.
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
// carries no Design/Placement (they never go over the wire). Canonical bytes
// decode in one pass, as an artifact does (decodeCanonical); anything else
// decodes through json.Unmarshal, with the same result.
func DecodeResult(data []byte) (*Result, error) {
	if r := new(Result); decodeCanonical(data, r) {
		return r, nil
	}
	r := new(Result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("flow: decode result: %w", err)
	}
	return r, nil
}

// FanoutSamples maps a fanout to the routed lengths of its nets (µm). It is
// a plain map with a one-pass decoder for the bytes encoding/json writes.
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

// UnmarshalJSON decodes the samples, replacing s. The canonical object
// encoding/json writes — keys as shortest-form integers in quotes, values
// as arrays of numbers — is read in one pass; any other spelling decodes
// through encoding/json, with the same result.
func (s *FanoutSamples) UnmarshalJSON(b []byte) error {
	if m, ok := decodeSamples(b); ok {
		*s = m
		return nil
	}
	var m map[int][]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*s = m
	return nil
}

// decodeSamples reads the canonical bytes of fanout samples in one pass, or
// reports false. A repeated key keeps its last value, as a map decode does.
func decodeSamples(b []byte) (FanoutSamples, bool) {
	r := jsonwire.NewReader(b)
	if r.Null() {
		return nil, r.Done()
	}
	m := FanoutSamples{}
	r.Delim('{')
	for n := 0; r.More('}', n); n++ {
		key := jsonwire.NewReader(r.Str())
		fanout := key.Int()
		if !key.Done() {
			r.Fail()
		}
		r.Delim(':')
		m[fanout] = r.Floats()
	}
	return m, r.Done()
}
