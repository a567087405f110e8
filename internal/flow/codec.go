package flow

import (
	"encoding/json"
	"fmt"
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
// carries no Design/Placement (they never go over the wire).
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("flow: decode result: %w", err)
	}
	return &r, nil
}
