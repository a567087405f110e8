package flow

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tmi3d/internal/cts"
	"tmi3d/internal/equiv"
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
// interchangeable with the value that was encoded. TestWireFormatTotal fills
// every envelope's fields, round-trips it and compares every field (the
// offWire table lists the fields deliberately left off); the stage engine's
// TestArtifactRoundTrip re-encodes the envelopes of real runs, and its
// TestPublishedValueIsStored checks that a published value encodes to the
// stored bytes. The report node's artifact is the Result itself, whose wire
// form is EncodeResult's payload.

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
// exact inverse of Encode.
func (n *Node) Decode(data []byte) (any, error) {
	if n.wire == nil {
		return nil, fmt.Errorf("flow: stage %s has no artifact codec", n.Name)
	}
	v := n.wire()
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("flow: decode %s artifact: %w", n.Name, err)
	}
	return v, nil
}
