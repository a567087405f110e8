package stage

import (
	"bytes"
	"fmt"

	"tmi3d/internal/flow"
)

// Wire-identity replay: the runtime counterpart of the wiresafe analyzer's
// static totality proof. WireIdentity runs a config through the staged flow,
// then pulls every cached node's artifact bytes back out of the store and
// pushes them through decode → re-encode. Stored and re-encoded bytes must be
// identical — the artifact IDs address bytes, so a codec that drops, invents,
// or reorders a field would fork cold and warm executions apart right here.

// WireCheck is one node's replay verdict.
type WireCheck struct {
	Name  string `json:"name"`
	ID    string `json:"id"`
	Bytes int    `json:"bytes"`
	OK    bool   `json:"ok"`
	// Detail explains a failure: a decode error, or the offset where the
	// re-encoded bytes first diverge from the stored ones.
	Detail string `json:"detail,omitempty"`
}

// WireIdentity executes cfg (populating every cache tier) and replays each
// cached node's stored artifact through its codec. It returns one check per
// cached node; a non-OK check means the wire format is not total for the
// value this config actually produced.
func (e *Engine) WireIdentity(cfg flow.Config) ([]WireCheck, error) {
	if e.store == nil {
		return nil, fmt.Errorf("stage: wire identity needs a persistent artifact store")
	}
	if _, err := e.Run(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	idByName := ids(cfg)
	out := make([]WireCheck, 0, len(Nodes))
	for i := range Nodes {
		n := &Nodes[i]
		if !n.Cached {
			continue
		}
		wc := WireCheck{Name: n.Name, ID: idByName[n.Name]}
		data, ok, err := e.store.Get(storeKey(n.Name, wc.ID))
		if err != nil {
			return nil, err
		}
		if !ok {
			wc.Detail = "artifact missing from the store after the run"
			out = append(out, wc)
			continue
		}
		wc.Bytes = len(data)
		re, err := reencode(n, data)
		switch {
		case err != nil:
			wc.Detail = err.Error()
		case !bytes.Equal(data, re):
			wc.Detail = fmt.Sprintf("re-encode diverges at byte %d (stored %d bytes, re-encoded %d)",
				firstDiff(data, re), len(data), len(re))
		default:
			wc.OK = true
		}
		out = append(out, wc)
	}
	return out, nil
}

// reencode round-trips one node's artifact bytes through its codec.
func reencode(n *flow.Node, data []byte) ([]byte, error) {
	v, err := n.Decode(data)
	if err != nil {
		return nil, err
	}
	return n.Encode(v)
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
