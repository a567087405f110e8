// Package stage is the staged flow engine: it runs flow's stage graph
// (flow.Nodes, twelve nodes) through the same flow.Execution flow.Run uses,
// with cache tiers plugged into the executor's hook, content-addressing every
// cached node's artifact so sweeps recompute only the dirty cone. A clock
// sweep reruns opt/route/signoff/power/report per point while generate,
// synthesis, and placement are computed once; a 2D-vs-T-MI compare shares
// whatever prefix its two configs agree on.
//
// # Content addressing
//
// Every node has a stage key — the exact flow.StageKeys Config fields of the
// node's body, rendered canonically — and an artifact ID:
//
//	id = sha256(version, name, key fields, dep artifact IDs in declared order)
//
// Two configs share a stage's artifact exactly when they agree on that
// stage's key fields and, recursively, on everything its upstream cone
// depends on. Soundness rests on two facts: the stagedeps analyzer proves
// each body reads no Config field outside its manifest entry, and the
// executor lets a body read no node's value outside its Deps.
//
// # Byte identity
//
// Staged results are byte-identical to flow.Run under any cache state: both
// run the same bodies through the same executor, and a cache hit stands in
// for a body with the value that body produced. A cold miss publishes the
// value its body built and encodes it only for the persistent store; a disk
// hit decodes. The two agree because the artifact codecs are exact inverses
// (proved by wiresafe, replayed by `tmi3d wireid`, fuzzed, and checked
// against the published values by TestPublishedValueIsStored) and because
// artifacts are immutable (a body that mutates an input clones it first).
// Tests diff report, Verilog, and DEF bytes across cold, warm, and
// partial-hit stores.
package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"tmi3d/internal/flow"
)

// Nodes is flow's stage graph, in topological order — the engine keys and
// caches exactly the nodes flow.Run executes.
var Nodes = flow.Nodes

// keyFields returns the stage's key fields: its flow.StageKeys entry minus
// Workers, the ignored field the report stage copies along with the whole
// Config (keying on it would split identical artifacts).
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
