package flow

import (
	"encoding/json"
	"fmt"

	"tmi3d/internal/jsonwire"
)

// EncodeResult renders the canonical wire encoding of a flow result: compact
// JSON with sorted map keys and unescaped HTML, terminated by a newline.
// Two encodings of equal results are byte-identical; this is the payload the
// serving layer stores on disk, caches in its LRU, and serves to clients,
// and the stored bytes of the report node's artifact.
func EncodeResult(r *Result) ([]byte, error) {
	return encodeCanonical(r, "result")
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
