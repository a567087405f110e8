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
		"setup":    "ed13db1108f9405e64211532662ceeecfcaed754a04e06bd272968f2061148ab",
		"library":  "5e97534421271e1d19a880ffacef86a5be23c47dc93a7cdd11078bc473630b6d",
		"generate": "17dc24f9613c648600364cab52c0cdcebe0b5deb73b4bb73a448f03d512f1cd2",
		"wlm":      "06669705d47bbf2840de9f231b838d728091510220cba589ad8fbb7bf0a71b80",
		"gates":    "314b67def334f278a21c25b55603b4cb1efe40fbfb55fa46a215b4987283bf5d",
		"synth":    "931378e20bf0e8240ff03548dbae225e996ccdd634704c94a8624b0d2032a227",
		"place":    "a8e87dd7080a2cffc79269964e3c441add09d884c0dc3642cf61368507a92056",
		"opt":      "7da37eefac2a0850399f6235853bbc67dcce0f05e55a0b0436ad4ca7b7e135d4",
		"route":    "e3f46b0c0989b97c47afbd7b5216fd647dfa2a437f36b84d71d4e57d5024d2b5",
		"signoff":  "c53978e475517b67bb00869cf218efb75c24a2a727a7c0d3e2d1ebb9976276e5",
		"power":    "0ccc255b00b40a54efbd3f43a3dbd50cab5388d8883cb7fa56ba3ea52c287c02",
		"report":   "81e463001b5e9834139237c1a47b159419e2f8340a83a19ea2775434cbb1b0a4",
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
