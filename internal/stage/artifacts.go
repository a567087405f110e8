package stage

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tmi3d/internal/cts"
	"tmi3d/internal/equiv"
	"tmi3d/internal/lint"
	"tmi3d/internal/netlist"
	"tmi3d/internal/opt"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/wlm"
)

// Artifact envelopes: each cached node's output. In process an envelope is a
// plain value — a cold run publishes the pointer its stage body built, and
// the memory tier hands that same value to every consumer. Only the
// persistent tier sees bytes: every envelope encodes canonically
// (encoding/json with sorted map keys, HTML escaping off) and decodes to an
// exact inverse, so a value decoded from the store is interchangeable with
// the value that was encoded. wiresafe proves the codecs total, the
// round-trip fuzzers and `tmi3d wireid` re-encode decoded envelopes, and
// TestPublishedValueIsStored checks that the published value encodes to the
// stored bytes.
//
// The report node has no envelope: its artifact is the raw flow.EncodeResult
// payload, byte-for-byte what the serving layer stores and serves.

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

// encodeNode renders a node's artifact value as its stored bytes.
func encodeNode(name string, v any) ([]byte, error) {
	if name == "report" {
		return v.([]byte), nil
	}
	return encodeArtifact(v)
}

// encodeArtifact renders the canonical bytes of an envelope.
func encodeArtifact(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("stage: encode artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeNode parses a node's stored artifact bytes into its envelope — the
// inverse of encodeNode. Only store hits and the wire-identity replay decode;
// a freshly executed artifact is published as the value its body built.
func decodeNode(name string, data []byte) (any, error) {
	var v any
	switch name {
	case "wlm":
		v = &wlmArtifact{}
	case "synth":
		v = &synthArtifact{}
	case "place":
		v = &placeArtifact{}
	case "opt":
		v = &optArtifact{}
	case "route":
		v = &routeArtifact{}
	case "signoff":
		v = &signoffArtifact{}
	case "power":
		v = &powerArtifact{}
	case "report":
		// The report artifact is the flow result's wire payload itself.
		return data, nil
	default:
		return nil, fmt.Errorf("stage: no artifact codec for node %q", name)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("stage: decode %s artifact: %w", name, err)
	}
	return v, nil
}
