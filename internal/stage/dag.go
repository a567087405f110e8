// Package stage is the staged flow engine: it executes flow.Run's pipeline
// as an explicit DAG of the twelve anchored stages, content-addressing every
// stage's output so sweeps recompute only the dirty cone. A clock sweep
// reruns opt/route/signoff/power/report per point while generate, synthesis,
// and placement are computed once; a 2D-vs-T-MI compare shares whatever
// prefix its two configs agree on.
//
// # Content addressing
//
// Every node has a stage key — the exact flow.StageKeys Config fields of the
// corresponding //tmi3dvet:stage region, rendered canonically — and an
// artifact ID:
//
//	id = sha256(version, name, key fields, dep artifact IDs in declared order)
//
// Two configs share a stage's artifact exactly when they agree on that
// stage's key fields and, recursively, on everything its upstream cone
// depends on. Soundness rests on the stagedeps analyzer: it proves each
// region reads no Config field outside its manifest entry, and the DAG
// consistency test (dag_test.go) proves every cross-stage artifact edge the
// analyzer computes is carried by the Deps declared here.
//
// # Byte identity
//
// Staged results are byte-identical to monolithic flow.Run under any cache
// state. The argument: every node executes the same exported stage helper
// (flow.RunSynth, flow.ClosePreRoute, ...) the monolith calls, on inputs that
// are either equal-valued clones of cached artifacts or recomputed pure
// values. A cold miss publishes the value its body built — what the monolith
// hands the next stage — and encodes it only for the persistent store; a disk
// hit decodes. The two agree because the artifact codecs are exact inverses
// (proved by wiresafe, replayed by `tmi3d wireid`, fuzzed, and checked
// against the published values by TestPublishedValueIsStored) and because
// cached artifacts are immutable (bodies keep no reference to what they
// return; consumers clone before mutating). Tests diff report, Verilog, and
// DEF bytes across cold, warm, and partial-hit stores.
package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"tmi3d/internal/flow"
)

// Node is one stage of the DAG.
type Node struct {
	// Name matches the //tmi3dvet:stage anchor and the StageKeys entry.
	Name string
	// Deps are the upstream nodes whose artifacts this node consumes; their
	// artifact IDs feed this node's ID in this order. Every cross-stage
	// artifact edge stagedeps computes over flow.Run must be covered by the
	// transitive closure of these edges.
	Deps []string
	// Cached marks nodes whose artifact is cacheable (in memory, and on disk
	// when a store is configured). Uncached nodes — setup, library, generate,
	// gates — are recomputed per run: they are cheap, process-cached
	// (generated netlists, the library check), or hold unserializable state
	// (the liberty library, the gate set).
	Cached bool
}

// Nodes is the DAG in topological (pipeline) order.
var Nodes = []Node{
	{Name: "setup"},
	{Name: "library", Deps: []string{"setup"}},
	{Name: "generate", Deps: []string{"setup"}},
	{Name: "wlm", Deps: []string{"setup", "library", "generate"}, Cached: true},
	{Name: "gates", Deps: []string{"setup", "library"}},
	{Name: "synth", Deps: []string{"setup", "library", "generate", "wlm", "gates"}, Cached: true},
	{Name: "place", Deps: []string{"setup", "library", "wlm", "synth"}, Cached: true},
	{Name: "opt", Deps: []string{"setup", "library", "gates", "synth", "place"}, Cached: true},
	{Name: "route", Deps: []string{"setup", "library", "opt"}, Cached: true},
	{Name: "signoff", Deps: []string{"setup", "library", "gates", "opt", "route"}, Cached: true},
	{Name: "power", Deps: []string{"setup", "library", "signoff"}, Cached: true},
	{Name: "report", Deps: []string{"setup", "library", "gates", "synth", "opt", "signoff", "power"}, Cached: true},
}

var nodeByName = func() map[string]*Node {
	m := make(map[string]*Node, len(Nodes))
	for i := range Nodes {
		m[Nodes[i].Name] = &Nodes[i]
	}
	return m
}()

// keyFields returns the stage's key fields: its flow.StageKeys entry minus
// Workers (worker budgets never change result bytes — the ParLoops
// determinism contract — so they must not split artifacts).
func keyFields(name string) []string {
	fields := flow.StageKeys[name]
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if f != "Workers" {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// KeyString renders a node's stage key for a config — the canonical
// field=value form hashed into the artifact ID, also shown by the `tmi3d
// stages` subcommand.
func KeyString(cfg flow.Config, name string) string {
	fields := keyFields(name)
	terms := make([]string, len(fields))
	for i, f := range fields {
		terms[i] = f + "=" + cfg.FieldKeyTerm(f)
	}
	return strings.Join(terms, "|")
}

const idVersion = "tmi3d-stage-v1"

// ids computes every node's artifact ID for a config, walking the DAG in
// topological order. cfg must be normalized (cfg.Normalized()).
func ids(cfg flow.Config) map[string]string {
	out := make(map[string]string, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		h := sha256.New()
		h.Write([]byte(idVersion))
		h.Write([]byte{0})
		h.Write([]byte(n.Name))
		h.Write([]byte{0})
		h.Write([]byte(KeyString(cfg, n.Name)))
		for _, dep := range n.Deps {
			h.Write([]byte{0})
			h.Write([]byte(out[dep]))
		}
		out[n.Name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// Reaches reports whether `to` is in the transitive dependency closure of
// `from` — the reachability the DAG consistency test checks artifact edges
// against.
func Reaches(from, to string) bool {
	n, ok := nodeByName[from]
	if !ok {
		return false
	}
	for _, d := range n.Deps {
		if d == to || Reaches(d, to) {
			return true
		}
	}
	return false
}
