package stage

import (
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/tech"
)

// The artifact IDs of one fixed configuration are pinned: they address every
// existing store, so a change that moves the stage graph, a stage key, or
// the ID derivation without meaning to would silently re-key — and
// cold-start — all of them. An intended change bumps idVersion and these
// goldens together.
func TestArtifactIDsGolden(t *testing.T) {
	cfg := flow.Config{Circuit: "FPU", Scale: 0.1, Node: tech.N45, Mode: tech.ModeTMI, Seed: 1}
	want := map[string]string{
		"setup":    "41927217c54defacb730bc98462d986252a4008cb21a8e01ed4826d8a2595819",
		"library":  "1ed2577231669addccec9085ffc212add8caf52f9984793c55884246026e7179",
		"generate": "477ea12406871ed6a716edc2b8337851e9f1dc4018afc842d6ddd5214f6d5510",
		"wlm":      "a9352f822653721f10c562306f2f077aeb5bfbe931024acf48b883d545799d0b",
		"gates":    "7b177b2956fcd8f49a2dbf3d022834182fb0cf960db2f24a334b5f281d02b9d8",
		"synth":    "22b70cce17a7ceef8fc858f319df96c81cad447dcc7f4d6ac88b7a489a101585",
		"place":    "846bc4c0acf59ae4a2ad8bb2f5364f15aba865a7d5c1baae71bebf9e390439ac",
		"opt":      "8190c23c95a45b0a5f6f0f8cdef41ed9285279a8d06598cd9f0f7c79cf647161",
		"route":    "17bd873ce6714cda805a1b27180ac23a34f4e01adc2611f96e0a35a37019687d",
		"signoff":  "abd53339b67f69f5f50b30680ce4a538f52b9cf2f0b477f4a91431c07d5b1c2b",
		"power":    "4cec6160a2bca1d47473ee6e8cc59bd129d820e20a7e5988038d1f6ccc2a7496",
		"report":   "924fecd28520652cec55f140c99e2b447537cb1b337aa0739a32f2a5209bfaeb",
	}
	got := ids(cfg.Normalized())
	if len(got) != len(want) {
		t.Errorf("%d artifact IDs, want %d", len(got), len(want))
	}
	for name, id := range want {
		if got[name] != id {
			t.Errorf("%s artifact ID = %s, want %s (bump idVersion and this golden together)", name, got[name], id)
		}
	}
}
